package fleet

// The fleet worker: an HTTP service that fills unit cache keys
// (DESIGN.md §15). A worker owns no analysis state beyond a small
// cache of built programs keyed by tree fingerprint; everything it
// produces goes into the shared store, where the coordinator — or any
// other coordinator sharing the CAS — replays it. A worker run
// mirrors the coordinator's live-unit path exactly: fresh engine per
// job over a checker compiled once per tree, marks pre-applied from
// the job's phase barrier, and nothing is ever written for a degraded
// or failed run, so a partial result cannot poison the cache no matter
// when the worker dies.

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/cache"
	"repro/internal/cc"
	"repro/internal/core"
	"repro/internal/metal"
	"repro/internal/prog"
	"repro/mc"
)

// workerMaxBody bounds a /v1/work request body.
const workerMaxBody = 256 << 20

// workerMaxTrees bounds the built-program cache: beyond this many
// distinct tree fingerprints, the least recently used is evicted.
const workerMaxTrees = 4

// Worker serves the fleet job protocol over a shared store.
type Worker struct {
	cas  cache.Store
	jobs int

	mu    sync.Mutex
	trees map[string]*workerTree
	order []string // LRU, most recent last

	requests         atomic.Int64
	jobsRun          atomic.Int64
	jobsFilled       atomic.Int64
	treesBuilt       atomic.Int64
	treesReused      atomic.Int64
	checkersCompiled atomic.Int64
	entryPuts        atomic.Int64
}

// workerTree is one built program, constructed at most once per tree
// fingerprint (concurrent requests for the same tree share the build
// through the once), and the checkers compiled against it.
type workerTree struct {
	once sync.Once
	prog *prog.Program
	err  error

	mu       sync.Mutex
	checkers map[string]*workerChecker // by checker source text
}

// workerChecker is one checker parsed and compiled against one tree,
// at most once (a request's concurrent jobs share it through the
// once). Engines only read the checker and its dispatch structure, as
// the coordinator's per-unit engines do.
type workerChecker struct {
	once     sync.Once
	c        *metal.Checker
	compiled *core.CompiledDispatch
	err      error
}

// NewWorker creates a worker over the shared store. jobs bounds
// per-request unit parallelism; <= 0 means one job at a time.
func NewWorker(cas cache.Store, jobs int) *Worker {
	if jobs <= 0 {
		jobs = 1
	}
	return &Worker{cas: cas, jobs: jobs, trees: map[string]*workerTree{}}
}

// Handler returns the worker's HTTP mux: POST /v1/work, GET
// /v1/healthz, GET /v1/stats.
func (w *Worker) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/work", w.handleWork)
	mux.HandleFunc("/v1/healthz", func(rw http.ResponseWriter, r *http.Request) {
		rw.Header().Set("Content-Type", "application/json")
		fmt.Fprintln(rw, `{"status":"ok","role":"worker"}`)
	})
	mux.HandleFunc("/v1/stats", func(rw http.ResponseWriter, r *http.Request) {
		rw.Header().Set("Content-Type", "application/json")
		json.NewEncoder(rw).Encode(w.Stats())
	})
	return mux
}

// Stats snapshots the worker counters.
func (w *Worker) Stats() WorkerStats {
	return WorkerStats{
		Requests:         w.requests.Load(),
		JobsRun:          w.jobsRun.Load(),
		JobsFilled:       w.jobsFilled.Load(),
		TreesBuilt:       w.treesBuilt.Load(),
		TreesReused:      w.treesReused.Load(),
		CheckersCompiled: w.checkersCompiled.Load(),
		EntryPuts:        w.entryPuts.Load(),
	}
}

func (w *Worker) handleWork(rw http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(rw, "POST only", http.StatusMethodNotAllowed)
		return
	}
	w.requests.Add(1)
	var req WorkRequest
	body := http.MaxBytesReader(rw, r.Body, workerMaxBody)
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		http.Error(rw, "bad request: "+err.Error(), http.StatusBadRequest)
		return
	}
	tree := w.tree(req.TreeFP, req.Files)
	if tree.err != nil {
		http.Error(rw, "build: "+tree.err.Error(), http.StatusUnprocessableEntity)
		return
	}

	// The worker always runs in-memory: MaxResidentMB is excluded from
	// the options fingerprint, and entries with inline summaries replay
	// identically to entries without, so a streaming coordinator can
	// still use fleet workers.
	opts := req.Options
	opts.MaxResidentMB = 0

	// Run the batch's jobs with bounded parallelism, then commit every
	// filled entry in ONE batched store write before responding — the
	// coordinator re-probes on response, so the write must land first.
	results := make([]JobResult, len(req.Jobs))
	entries := make([][]byte, len(req.Jobs))
	sem := make(chan struct{}, w.jobs)
	var wg sync.WaitGroup
	for i, uj := range req.Jobs {
		sem <- struct{}{}
		wg.Add(1)
		go func(i int, uj mc.UnitJob) {
			defer wg.Done()
			defer func() { <-sem }()
			w.jobsRun.Add(1)
			entries[i], results[i] = w.runJob(r, tree, opts, uj)
		}(i, uj)
	}
	wg.Wait()

	puts := map[string][]byte{}
	for i, data := range entries {
		if data != nil {
			puts[results[i].Key] = data
		}
	}
	if len(puts) > 0 {
		if err := cache.PutBatch(w.cas, puts); err != nil {
			// The store rejected the batch: nothing was durably
			// committed, so report every job unfilled rather than let
			// the coordinator re-probe keys that are not there.
			for i := range results {
				if entries[i] != nil {
					results[i] = JobResult{Key: results[i].Key, Err: "store: " + err.Error()}
				}
			}
			puts = nil
		}
		w.entryPuts.Add(int64(len(puts)))
	}
	for _, res := range results {
		if res.Filled {
			w.jobsFilled.Add(1)
		}
	}
	rw.Header().Set("Content-Type", "application/json")
	json.NewEncoder(rw).Encode(WorkResponse{Results: results})
}

// runJob executes one unit exactly as the coordinator's live path
// would: fresh engine with compiled dispatch, barrier marks pre-applied
// to a private shared store. It returns the encoded entry (nil when
// the run must not be cached) and the job's result.
func (w *Worker) runJob(r *http.Request, tree *workerTree, opts core.Options, uj mc.UnitJob) ([]byte, JobResult) {
	wc := w.checker(tree, uj.CheckerSrc)
	if wc.err != nil {
		return nil, JobResult{Key: uj.Key, Err: "checker: " + wc.err.Error()}
	}
	funcs := make([]*prog.Function, len(uj.Funcs))
	for i, id := range uj.Funcs {
		if funcs[i] = tree.prog.FuncByID(id); funcs[i] == nil {
			return nil, JobResult{Key: uj.Key, Err: "unknown function " + id}
		}
	}
	roots := make([]*prog.Function, len(uj.Roots))
	for i, id := range uj.Roots {
		if roots[i] = tree.prog.FuncByID(id); roots[i] == nil {
			return nil, JobResult{Key: uj.Key, Err: "unknown root " + id}
		}
	}
	shared := core.NewShared()
	for _, ev := range uj.Marks {
		shared.Mark(ev.Name, ev.Key)
	}
	en := core.NewEngineShared(tree.prog, wc.c, opts, shared)
	en.SetCompiled(wc.compiled, 0)
	runs := en.RunRootsContext(r.Context(), roots)
	// The cache governance rule, verbatim: degraded or failed runs are
	// never written — a cached entry always represents a complete
	// analysis. A worker killed mid-unit falls out the same way: the
	// Put below never happens, the key stays empty, the coordinator
	// requeues or runs locally.
	if en.Failure != nil {
		return nil, JobResult{Key: uj.Key, Err: "checker failure: " + en.Failure.Panic}
	}
	if en.Degraded() || r.Context().Err() != nil {
		return nil, JobResult{Key: uj.Key, Err: "degraded"}
	}
	data, err := cache.EncodeUnit(cache.NewUnitEntry(en, funcs, runs))
	if err != nil {
		return nil, JobResult{Key: uj.Key, Err: "encode: " + err.Error()}
	}
	return data, JobResult{Key: uj.Key, Filled: true}
}

// checker returns the tree's parsed and compiled form of a checker
// source, building it on first sight. The key is the source text the
// worker received, not the job's CheckerFP label, so a mislabelled job
// cannot borrow another checker.
func (w *Worker) checker(tree *workerTree, src string) *workerChecker {
	tree.mu.Lock()
	wc := tree.checkers[src]
	if wc == nil {
		wc = &workerChecker{}
		tree.checkers[src] = wc
	}
	tree.mu.Unlock()
	wc.once.Do(func() {
		w.checkersCompiled.Add(1)
		if wc.c, wc.err = metal.Parse(src); wc.err == nil {
			wc.compiled = core.CompileDispatch(tree.prog, []*metal.Checker{wc.c})
		}
	})
	return wc
}

// tree returns the built program for a fingerprint, building (and
// caching) it on first sight. The build runs the shared pass-1 loader
// over the shared store's AST cache.
func (w *Worker) tree(fp string, srcs map[string]string) *workerTree {
	w.mu.Lock()
	t := w.trees[fp]
	if t == nil {
		t = &workerTree{checkers: map[string]*workerChecker{}}
		w.trees[fp] = t
		w.order = append(w.order, fp)
		if len(w.order) > workerMaxTrees {
			delete(w.trees, w.order[0])
			w.order = w.order[1:]
		}
	} else {
		w.treesReused.Add(1)
		for i, o := range w.order { // refresh LRU position
			if o == fp {
				w.order = append(append(w.order[:i:i], w.order[i+1:]...), fp)
				break
			}
		}
	}
	w.mu.Unlock()
	t.once.Do(func() {
		w.treesBuilt.Add(1)
		var files []*cc.File
		if files, _, t.err = cache.LoadSources(w.cas, srcs, w.jobs); t.err == nil {
			t.prog = prog.Build(files...)
		}
	})
	return t
}

// TreeFP renders a deterministic fingerprint for a source set; the
// analyzer computes the same value for mc.UnitRun.TreeFP, so tests
// and tools can predict which tree a worker will reuse.
func TreeFP(files map[string]string) string {
	lines := make([]string, 0, len(files))
	for name, src := range files {
		lines = append(lines, name+"="+cc.HashBytes([]byte(src)))
	}
	sort.Strings(lines)
	return cache.Key("tree", strings.Join(lines, "\n"))
}
