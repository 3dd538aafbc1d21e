package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"

	"repro/internal/cache"
	"repro/internal/fleet"
	"repro/internal/server"
	"repro/mc"
)

// Workload is one closed-loop, one-caller operation stream. Each runs
// in a process of its own, so peak RSS and the allocator's state are
// the workload's alone.
type Workload struct {
	Name string
	// Tree names the input ("leaf-L", "calls-L", "calls-S", "calls-XS");
	// it keys expected.json.
	Tree string
	// Cached says the op goes through mc's cache-aware run path, which
	// decides the stages the traced run attributes time to.
	Cached bool
	// prepare primes stores and boots daemons for one instance. dir is
	// a fresh directory inside the checkout; p is nil unless tracing.
	prepare func(t Tree, dir string, p *probe) (*instance, error)
}

// instance is one set-up of a workload.
type instance struct {
	// next prepares operation i (untimed) and returns the call to time.
	// Operation 0 is the warm-up.
	next  func(i int) func() (outcome, error)
	close func()
}

// outcome is what one op produced, checked outside the timed call.
type outcome struct {
	// version identifies srcs among the trees this instance analyzed
	// (0 = the generated tree; edits count up), so one reference run
	// serves every op on the same tree.
	version int
	srcs    map[string]string
	prev    map[string]string // the tree before this op's edit, if any
	res     *mc.Result        // in-process workloads
	reply   []byte            // serve-patch: the 200 response body
	cleanup func()            // untimed; may be nil
}

var trees = map[string]func(seed int64) (Tree, error){
	"leaf-L":   func(seed int64) (Tree, error) { return LeafTree(256, seed), nil },
	"calls-L":  func(seed int64) (Tree, error) { return CallTree(32, seed) },
	"calls-S":  func(seed int64) (Tree, error) { return CallTree(12, seed) },
	"calls-XS": func(seed int64) (Tree, error) { return CallTree(6, seed) },
}

var workloads = []Workload{
	{
		Name: "cold-calls", Tree: "calls-L",
		prepare: prepareCold(mc.RunConfig{Jobs: jobs}),
	},
	{
		Name: "cold-leaf", Tree: "leaf-L",
		prepare: prepareCold(mc.RunConfig{Jobs: jobs}),
	},
	{
		Name: "stream-calls", Tree: "calls-L",
		prepare: prepareCold(mc.RunConfig{Jobs: jobs, MaxResidentMB: 64}),
	},
	{
		Name: "cache-fill", Tree: "calls-S", Cached: true,
		prepare: prepareCacheFill,
	},
	{
		Name: "edit-warm", Tree: "calls-S", Cached: true,
		prepare: prepareEditWarm,
	},
	{
		Name: "serve-patch", Tree: "calls-S", Cached: true,
		prepare: prepareServePatch,
	},
	{
		Name: "fleet-1w", Tree: "calls-XS", Cached: true,
		prepare: prepareFleet,
	},
}

func workloadByName(name string) (Workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return Workload{}, false
}

func prepareCold(cfg mc.RunConfig) func(Tree, string, *probe) (*instance, error) {
	return func(t Tree, _ string, p *probe) (*instance, error) {
		run := func() (outcome, error) {
			res, err := p.analyze(t.Srcs, cfg)
			return outcome{srcs: t.Srcs, res: res}, err
		}
		return &instance{next: func(int) func() (outcome, error) { return run }, close: func() {}}, nil
	}
}

func prepareCacheFill(t Tree, dir string, p *probe) (*instance, error) {
	next := func(i int) func() (outcome, error) {
		d := filepath.Join(dir, fmt.Sprintf("fill-%d", i))
		return func() (outcome, error) {
			out := outcome{srcs: t.Srcs, cleanup: func() { os.RemoveAll(d) }}
			ds, err := cache.NewDirStore(d)
			if err != nil {
				return out, err
			}
			out.res, err = p.analyze(t.Srcs, mc.RunConfig{Jobs: jobs, CacheStore: p.wrapStore(ds)})
			return out, err
		}
	}
	return &instance{next: next, close: func() {}}, nil
}

// editor walks an instance's tree through the edit stream.
type editor struct {
	names []string
	cur   map[string]string
}

func newEditor(t Tree) *editor { return &editor{names: sortedNames(t.Srcs), cur: t.Srcs} }

// apply moves to the tree after edit i and returns the edited file.
func (e *editor) apply(i int) string {
	file, edit := editAt(e.names, i)
	e.cur = edit.Apply(e.cur)
	return file
}

func prepareEditWarm(t Tree, dir string, p *probe) (*instance, error) {
	ds, err := cache.NewDirStore(filepath.Join(dir, "warm"))
	if err != nil {
		return nil, err
	}
	cfg := mc.RunConfig{Jobs: jobs, CacheStore: p.wrapStore(ds)}
	if _, err := analyze(t.Srcs, cfg); err != nil {
		return nil, fmt.Errorf("fill: %w", err)
	}
	ed := newEditor(t)
	next := func(i int) func() (outcome, error) {
		prev := ed.cur
		ed.apply(i)
		srcs := ed.cur
		return func() (outcome, error) {
			res, err := p.analyze(srcs, cfg)
			return outcome{version: i + 1, srcs: srcs, prev: prev, res: res}, err
		}
	}
	return &instance{next: next, close: func() { os.RemoveAll(dir) }}, nil
}

func prepareServePatch(t Tree, _ string, p *probe) (*instance, error) {
	var names []string
	for _, s := range mc.BundledCheckers() {
		names = append(names, s.Name)
	}
	srv := server.New(server.Config{Jobs: jobs, Checkers: names, Store: p.wrapStore(cache.NewMemStore())})
	ts := httptest.NewServer(p.wrapHandler("server", srv.Handler()))
	stop := func() {
		ts.Close()
		srv.Close()
	}
	post := func(req server.AnalyzeRequest) func() ([]byte, error) {
		body, err := json.Marshal(req)
		return func() ([]byte, error) {
			if err != nil {
				return nil, err
			}
			id := p.begin("client.request")
			defer p.end(id)
			resp, err := ts.Client().Post(ts.URL+"/v1/analyze", "application/json", bytes.NewReader(body))
			if err != nil {
				return nil, err
			}
			defer resp.Body.Close()
			data, err := io.ReadAll(resp.Body)
			if err == nil && resp.StatusCode != http.StatusOK {
				err = fmt.Errorf("analyze: status %d: %.200s", resp.StatusCode, data)
			}
			return data, err
		}
	}
	if _, err := post(server.AnalyzeRequest{Files: t.Srcs, Reset: true})(); err != nil {
		stop()
		return nil, fmt.Errorf("reset post: %w", err)
	}
	ed := newEditor(t)
	next := func(i int) func() (outcome, error) {
		prev := ed.cur
		file := ed.apply(i)
		srcs := ed.cur
		send := post(server.AnalyzeRequest{Files: map[string]string{file: srcs[file]}})
		return func() (outcome, error) {
			reply, err := send()
			return outcome{version: i + 1, srcs: srcs, prev: prev, reply: reply}, err
		}
	}
	return &instance{next: next, close: stop}, nil
}

func prepareFleet(t Tree, _ string, p *probe) (*instance, error) {
	run := func() (outcome, error) {
		mem := p.wrapStore(cache.NewMemStore())
		casSrv := httptest.NewServer(p.wrapHandler("fleet.cas", cache.NewCASServer(mem)))
		defer casSrv.Close()
		worker := fleet.NewWorker(cache.NewHTTPStore(casSrv.URL, nil), jobs)
		workerSrv := httptest.NewServer(p.wrapHandler("fleet.worker", worker.Handler()))
		defer workerSrv.Close()
		co := fleet.NewCoordinator(fleet.Config{Workers: []string{workerSrv.URL}})
		defer co.Close()
		res, err := p.analyze(t.Srcs, mc.RunConfig{Jobs: jobs, CacheStore: mem, UnitRunner: co.RunnerFor("benchmark")})
		p.noteFleet(co.Stats())
		if err == nil && res.Incr.UnitsRemote == 0 {
			err = fmt.Errorf("fleet: no unit was filled remotely")
		}
		return outcome{srcs: t.Srcs, res: res}, err
	}
	return &instance{next: func(int) func() (outcome, error) { return run }, close: func() {}}, nil
}
