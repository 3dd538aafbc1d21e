package fleet_test

// Fleet equivalence and resilience tests (DESIGN.md §15), run under
// -race via `make race`:
//
//   - byte-identical output: a coordinator run over N workers — cold
//     and warm, any N, per-unit and whole-program-unit checkers, with
//     and without budgets — must reproduce the single-process run's
//     ranked output, rule groups, and statistics exactly;
//   - shared-CAS reuse: a second coordinator sharing the store
//     replays everything without dispatching a single job;
//   - worker loss mid-shard: the shard is re-posted to the next
//     worker, the cache is never poisoned, and no byte of output
//     changes;
//   - a worker fills only keys it derived from the content it was sent.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/cache"
	"repro/internal/fleet"
	"repro/internal/workload"
	"repro/mc"
)

var fleetCheckers = []string{"free", "lock", "null", "leak", "interrupt", "panic-marker", "block"}

// digest renders everything user-visible about a result, matching the
// incremental suite's notion of byte-identity.
func digest(res *mc.Result) string {
	var sb strings.Builder
	for _, r := range res.Ranked() {
		sb.WriteString(r.Detailed())
	}
	sb.WriteString("== groups ==\n")
	for _, g := range res.Grouped() {
		fmt.Fprintf(&sb, "%s z=%.6f n=%d\n", g.Rule, g.Z, len(g.Reports))
	}
	sb.WriteString("== stats ==\n")
	names := make([]string, 0, len(res.Stats))
	for n := range res.Stats {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(&sb, "%s: %+v\n", n, res.Stats[n])
	}
	return sb.String()
}

// suite is one analysis configuration: a tree, the standard checker
// set plus an optional extra metal checker, and optional budgets.
type suite struct {
	srcs    map[string]string
	extra   string
	budgets mc.Budgets
}

// selfCoupledSrc both writes marks (mark_fn) and reads them
// (mc_fn_marked): every kfree call after the first one in global root
// order is reported, so its result depends on the whole program and it
// keys as a single whole-program unit.
const selfCoupledSrc = `
sm refree;
decl any_fn_call fn;
decl any_arguments args;
start:
    { fn(args) } && ${ mc_fn_marked(fn, "freed-before") } ==> start, { err("freeing routine called again"); }
  | { fn(args) } && ${ mc_is_call_to(fn, "kfree") } ==> start, { mark_fn(fn, "freed-before"); }
;`

// run analyzes srcs with the standard checker set; runner == nil is
// the plain single-process path.
func run(t testing.TB, srcs map[string]string, store cache.Store, runner mc.UnitRunner) (*mc.Result, string) {
	t.Helper()
	return suite{srcs: srcs}.run(t, store, runner)
}

func (s suite) run(t testing.TB, store cache.Store, runner mc.UnitRunner) (*mc.Result, string) {
	t.Helper()
	opts := mc.DefaultOptions()
	opts.Budgets = s.budgets
	a := mc.NewAnalyzer()
	if err := a.Configure(mc.RunConfig{Options: &opts, Jobs: 2, CacheStore: store, UnitRunner: runner}); err != nil {
		t.Fatal(err)
	}
	for name, src := range s.srcs {
		a.AddSource(name, src)
	}
	for _, c := range fleetCheckers {
		if err := a.LoadBundledChecker(c); err != nil {
			t.Fatal(err)
		}
	}
	if s.extra != "" {
		if err := a.LoadChecker(s.extra); err != nil {
			t.Fatal(err)
		}
	}
	a.MarkFunction("printk", "blocking")
	a.MarkFunction("net_wait", "blocking")
	res, err := a.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return res, digest(res)
}

// startWorkers spins n in-process fleet workers over the shared CAS
// and returns their URLs.
func startWorkers(t testing.TB, cas cache.Store, n int) []string {
	t.Helper()
	urls := make([]string, n)
	for i := range urls {
		srv := httptest.NewServer(fleet.NewWorker(cas, 2).Handler())
		t.Cleanup(srv.Close)
		urls[i] = srv.URL
	}
	return urls
}

// TestFleetByteIdenticalColdAndWarm covers every arm of the unit
// enumeration a worker derives for itself: leaf-only units (one root
// each), call-rich units with several roots and a self-coupled checker
// (a single whole-program unit) — and a budgeted run, whose budgets
// travel in the options and key every unit a worker derives.
func TestFleetByteIdenticalColdAndWarm(t *testing.T) {
	leaf, _ := workload.MixedTree(3, 8, 41)
	for _, tc := range []struct {
		name string
		suite
	}{
		{"leaf", suite{srcs: leaf}},
		{"call-rich", suite{srcs: workload.CallRichTree()}},
		{"self-coupled", suite{srcs: leaf, extra: selfCoupledSrc}},
		{"budgeted", suite{srcs: workload.CallRichTree(), budgets: mc.Budgets{FuncBlocks: 400}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			plainRes, plain := tc.run(t, nil, nil)
			if len(plainRes.Reports) == 0 {
				t.Fatal("plain run reported nothing; the comparison is vacuous")
			}
			if tc.extra != "" && !strings.Contains(plain, "freeing routine called again") {
				t.Fatal("the self-coupled checker never fired; the comparison is vacuous")
			}
			if _, single := tc.run(t, cache.NewMemStore(), nil); single != plain {
				t.Fatal("single-process cached run differs from plain (pre-existing)")
			}
			for _, workers := range []int{1, 2, 3} {
				cas := cache.NewMemStore()
				co := fleet.NewCoordinator(fleet.Config{Workers: startWorkers(t, cas, workers)})
				defer co.Close()

				cold, coldDigest := tc.run(t, cas, co.RunnerFor(""))
				if coldDigest != plain {
					t.Fatalf("N=%d cold fleet output differs from single-process", workers)
				}
				if cold.Incr.UnitsRemote == 0 {
					t.Fatalf("N=%d cold fleet run filled no units remotely: %+v", workers, co.Stats())
				}
				if cold.Incr.UnitsRemote != cold.Incr.UnitsReplayed || cold.Incr.UnitsLive != 0 {
					t.Fatalf("N=%d: %d remote fills, %d replays, %d live on a cold store",
						workers, cold.Incr.UnitsRemote, cold.Incr.UnitsReplayed, cold.Incr.UnitsLive)
				}

				warm, warmDigest := tc.run(t, cas, co.RunnerFor(""))
				if warmDigest != plain {
					t.Fatalf("N=%d warm fleet output differs from single-process", workers)
				}
				if warm.Incr.UnitsLive != 0 || warm.Incr.UnitsRemote != 0 {
					t.Fatalf("N=%d warm run was not a pure replay: live=%d remote=%d",
						workers, warm.Incr.UnitsLive, warm.Incr.UnitsRemote)
				}
			}
		})
	}
}

// TestFleetSharedCASSecondCoordinator pins the warm-reuse acceptance bar:
// a second coordinator sharing the CAS replays >= 90% of its units
// without dispatching anything.
func TestFleetSharedCASSecondCoordinator(t *testing.T) {
	srcs, _ := workload.MixedTree(3, 8, 42)
	cas := cache.NewMemStore()
	co := fleet.NewCoordinator(fleet.Config{Workers: startWorkers(t, cas, 2)})
	defer co.Close()
	_, first := run(t, srcs, cas, co.RunnerFor(""))

	co2 := fleet.NewCoordinator(fleet.Config{Workers: startWorkers(t, cas, 2)})
	defer co2.Close()
	second, secondDigest := run(t, srcs, cas, co2.RunnerFor(""))
	if secondDigest != first {
		t.Fatal("second coordinator's output differs")
	}
	total := second.Incr.UnitsReplayed + second.Incr.UnitsLive
	if total == 0 || second.Incr.UnitsReplayed*10 < total*9 {
		t.Fatalf("second coordinator replayed %d of %d units, want >= 90%%",
			second.Incr.UnitsReplayed, total)
	}
	if got := co2.Stats().Dispatched; got != 0 {
		t.Fatalf("second coordinator dispatched %d jobs over a warm CAS", got)
	}
}

// TestSiblingCoordinatorOverHTTPCAS is the `xgccd -coordinator -cas URL`
// shape: the analyzer's store is an HTTPStore on another host's
// CASServer, so every probe and write — the units' batches — crosses
// the wire. A cold run fills the CAS; a second analyzer replays every
// unit (no function invalidated), hitting exactly one key per unit and
// writing none.
func TestSiblingCoordinatorOverHTTPCAS(t *testing.T) {
	srcs, _ := workload.MixedTree(3, 8, 44)
	_, plain := run(t, srcs, nil, nil)
	srv := httptest.NewServer(http.StripPrefix("/v1/cas", cache.NewCASServer(cache.NewMemStore())))
	defer srv.Close()
	cas := cache.NewHTTPStore(srv.URL+"/v1/cas", srv.Client())

	cold, coldDigest := run(t, srcs, cas, nil)
	if coldDigest != plain {
		t.Fatal("cold run over an HTTP CAS differs from the plain run")
	}
	units := cold.Incr.UnitsLive
	if units == 0 || cold.Incr.UnitsReplayed != 0 {
		t.Fatalf("cold run: %d units live, %d replayed", units, cold.Incr.UnitsReplayed)
	}
	warm, warmDigest := run(t, srcs, cas, nil)
	if warmDigest != plain {
		t.Fatal("warm run over an HTTP CAS differs from the plain run")
	}
	if in := warm.Incr; in.UnitsLive != 0 || in.UnitsReplayed != units || in.FuncsInvalidated != 0 || in.CacheHits != int64(units) || in.CachePuts != 0 {
		t.Fatalf("warm run: %d live, %d of %d replayed, %d funcs invalidated, %d hits, %d puts (want one hit per unit, no put)",
			in.UnitsLive, in.UnitsReplayed, units, in.FuncsInvalidated, in.CacheHits, in.CachePuts)
	}
}

// TestFleetWorkerLossRequeues kills a worker mid-shard: the shard must
// be re-posted to the healthy worker (fleet_requeues counts re-posted
// shards), the cache must never see a partial entry, and the output
// must not change.
func TestFleetWorkerLossRequeues(t *testing.T) {
	srcs, _ := workload.MixedTree(3, 8, 43)
	_, plain := run(t, srcs, nil, nil)

	cas := cache.NewMemStore()
	good := startWorkers(t, cas, 1)[0]

	// The doomed worker accepts work and dies mid-shard: the connection
	// drops with no response, after the request (and any partial
	// computation) is already in flight.
	var killed atomic.Int64
	doomed := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		killed.Add(1)
		conn, _, err := w.(http.Hijacker).Hijack()
		if err == nil {
			conn.Close()
		}
	}))
	defer doomed.Close()

	co := fleet.NewCoordinator(fleet.Config{Workers: []string{doomed.URL, good}})
	defer co.Close()

	res, got := run(t, srcs, cas, co.RunnerFor(""))
	if got != plain {
		t.Fatal("output with a dying worker differs from single-process")
	}
	if res.Degraded || len(res.Failures) > 0 {
		t.Fatalf("worker loss surfaced as degradation: %+v", res.Failures)
	}
	st := co.Stats()
	if killed.Load() == 0 || st.Requeues == 0 {
		t.Fatalf("doomed worker took %d shards and %d were re-posted: %+v", killed.Load(), st.Requeues, st)
	}
	if st.Dispatched != st.Filled+st.LocalFallback {
		t.Fatalf("unit accounting leaked: %+v", st)
	}
	if res.Incr.UnitsLive != 0 {
		t.Fatalf("%d units ran locally although the healthy worker took the re-posted shards", res.Incr.UnitsLive)
	}

	// The cache the dying worker touched must warm-replay identically.
	warm, warmDigest := run(t, srcs, cas, nil)
	if warmDigest != plain {
		t.Fatal("cache poisoned: warm replay differs after worker loss")
	}
	if warm.Incr.UnitsLive != 0 {
		t.Fatalf("warm replay ran %d units live", warm.Incr.UnitsLive)
	}
}

// offered runs s over a fresh store with a runner that records what the
// analyzer offers the fleet and fills nothing: the unit keys an honest
// coordinator derives for that content, phase by phase.
func (s suite) offered(t testing.TB) []*mc.UnitRun {
	t.Helper()
	var runs []*mc.UnitRun
	s.run(t, cache.NewMemStore(), func(_ context.Context, run *mc.UnitRun) error {
		runs = append(runs, run)
		return nil
	})
	if len(runs) == 0 {
		t.Fatal("the analyzer offered nothing")
	}
	return runs
}

// postWork posts one request to a worker and returns how many keys it
// reports filled.
func postWork(t testing.TB, url string, req *fleet.WorkRequest) int64 {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/work", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var wresp fleet.WorkResponse
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/work: status %d", resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&wresp); err != nil {
		t.Fatal(err)
	}
	return wresp.Filled
}

// TestWorkerFillsOnlyDerivedKeys asks a worker for tree A's unit keys
// while describing tree B (A with every line of one file shifted, so
// that file's reports move). The worker derives keys from B: the other
// files' units have the same key in both trees and fill, with content
// that is right for either; the shifted units' A keys are not
// derivable from what was sent, so the
// store must gain nothing under them, and A's replay over that store
// must still equal the plain run. (A worker that trusted the request's
// pairing of key and unit would store B's reports under A's keys.)
func TestWorkerFillsOnlyDerivedKeys(t *testing.T) {
	treeA, _ := workload.MixedTree(2, 6, 46)
	var edited string
	for name := range treeA {
		if edited == "" || name < edited {
			edited = name
		}
	}
	treeB := workload.PrependBanner(edited).Apply(treeA)
	a, b := suite{srcs: treeA}, suite{srcs: treeB}
	_, plainA := a.run(t, nil, nil)
	if _, plainB := b.run(t, nil, nil); plainB == plainA {
		t.Fatal("the edit changed no report; poisoning would be invisible")
	}

	derivedB := map[string]bool{}
	for _, run := range b.offered(t) {
		for _, job := range run.Jobs {
			derivedB[job.Key] = true
		}
	}
	cas := cache.NewMemStore()
	url := startWorkers(t, cas, 1)[0]
	foreign := 0
	for _, run := range a.offered(t) {
		req := *run
		req.Files = treeB // A's keys, B's content
		filled := postWork(t, url, &req)
		for _, job := range run.Jobs {
			if derivedB[job.Key] {
				filled--
			} else {
				foreign++
			}
			if cache.Has(cas, job.Key) != derivedB[job.Key] {
				t.Fatalf("key %s: derivable from the content sent = %v, in store = %v",
					job.Key, derivedB[job.Key], cache.Has(cas, job.Key))
			}
		}
		if filled != 0 {
			t.Fatalf("the worker's filled count is off by %d from the keys the content derives", filled)
		}
	}
	if foreign == 0 {
		t.Fatal("every key of A is also a key of B; the test asked for nothing foreign")
	}

	co := fleet.NewCoordinator(fleet.Config{Workers: []string{url}})
	defer co.Close()
	if _, got := a.run(t, cas, co.RunnerFor("")); got != plainA {
		t.Fatal("replay of A over the store the mismatched request touched differs from the plain run")
	}
}

// TestWorkerWorkIsPostOnly: /v1/work is registered as a POST route, so
// any other method gets the mux's 405 naming POST in Allow and is not
// counted as a work request.
func TestWorkerWorkIsPostOnly(t *testing.T) {
	w := fleet.NewWorker(cache.NewMemStore(), 1)
	srv := httptest.NewServer(w.Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/v1/work")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed || resp.Header.Get("Allow") != "POST" {
		t.Errorf("GET /v1/work: status %d, Allow %q; want 405, POST", resp.StatusCode, resp.Header.Get("Allow"))
	}
	if n := w.Stats().Requests; n != 0 {
		t.Errorf("a refused GET counted as %d work requests", n)
	}
}

// TestWorkerTreeReuse pins the worker-side program cache: two
// requests for one tree build it once.
func TestWorkerTreeReuse(t *testing.T) {
	srcs, _ := workload.MixedTree(2, 6, 45)
	cas := cache.NewMemStore()
	w := fleet.NewWorker(cas, 1)
	srv := httptest.NewServer(w.Handler())
	defer srv.Close()
	co := fleet.NewCoordinator(fleet.Config{Workers: []string{srv.URL}})
	defer co.Close()

	run(t, srcs, cas, co.RunnerFor(""))
	st := w.Stats()
	if st.TreesBuilt != 1 {
		t.Fatalf("worker built %d trees for one source set (reused %d)", st.TreesBuilt, st.TreesReused)
	}
	if st.JobsFilled == 0 {
		t.Fatal("worker filled nothing")
	}
}

// TestWorkerCompilesCheckerOncePerTree: every job used to parse its
// checker and compile whole-program dispatch for itself; the worker now
// does both once per (tree, checker) however many unit jobs name it,
// including jobs of one request running concurrently.
func TestWorkerCompilesCheckerOncePerTree(t *testing.T) {
	srcs, _ := workload.MixedTree(2, 6, 45)
	cas := cache.NewMemStore()
	w := fleet.NewWorker(cas, 4)
	srv := httptest.NewServer(w.Handler())
	defer srv.Close()
	co := fleet.NewCoordinator(fleet.Config{Workers: []string{srv.URL}})
	defer co.Close()

	run(t, srcs, cas, co.RunnerFor(""))
	st := w.Stats()
	if st.CheckersCompiled != int64(len(fleetCheckers)) {
		t.Errorf("worker compiled %d checkers for %d loaded", st.CheckersCompiled, len(fleetCheckers))
	}
	if st.JobsRun <= st.CheckersCompiled {
		t.Fatalf("only %d jobs for %d checkers: the test no longer sends several jobs per checker",
			st.JobsRun, st.CheckersCompiled)
	}
}
