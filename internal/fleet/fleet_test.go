package fleet_test

// Fleet equivalence and resilience tests (DESIGN.md §15), run under
// -race via `make race`:
//
//   - byte-identical output: a coordinator run over N workers — cold
//     and warm, any N — must reproduce the single-process run's
//     ranked output, rule groups, and statistics exactly;
//   - shared-CAS reuse: a second coordinator sharing the store
//     replays everything without dispatching a single job;
//   - worker loss mid-unit: killing a worker requeues its jobs,
//     never poisons the cache, and never changes a byte of output.

import (
	"context"
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

// run analyzes srcs with the standard checker set; runner == nil is
// the plain single-process path.
func run(t *testing.T, srcs map[string]string, store cache.Store, runner mc.UnitRunner) (*mc.Result, string) {
	t.Helper()
	a := mc.NewAnalyzer()
	if err := a.Configure(mc.RunConfig{Jobs: 2, CacheStore: store, UnitRunner: runner}); err != nil {
		t.Fatal(err)
	}
	for name, src := range srcs {
		a.AddSource(name, src)
	}
	for _, c := range fleetCheckers {
		if err := a.LoadBundledChecker(c); err != nil {
			t.Fatal(err)
		}
	}
	a.MarkFunction("printk", "blocking")
	res, err := a.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return res, digest(res)
}

// startWorkers spins n in-process fleet workers over the shared CAS
// and returns their URLs.
func startWorkers(t *testing.T, cas cache.Store, n int) []string {
	t.Helper()
	urls := make([]string, n)
	for i := range urls {
		srv := httptest.NewServer(fleet.NewWorker(cas, 2).Handler())
		t.Cleanup(srv.Close)
		urls[i] = srv.URL
	}
	return urls
}

func TestFleetByteIdenticalColdAndWarm(t *testing.T) {
	srcs, _ := workload.MixedTree(3, 8, 41)
	_, plain := run(t, srcs, nil, nil)
	_, single := run(t, srcs, cache.NewMemStore(), nil)
	if single != plain {
		t.Fatal("single-process cached run differs from plain (pre-existing)")
	}

	for _, workers := range []int{1, 3} {
		cas := cache.NewMemStore()
		co := fleet.NewCoordinator(fleet.Config{Workers: startWorkers(t, cas, workers)})
		defer co.Close()

		cold, coldDigest := run(t, srcs, cas, co.RunnerFor("t1"))
		if coldDigest != plain {
			t.Fatalf("N=%d cold fleet output differs from single-process", workers)
		}
		if cold.Incr.UnitsRemote == 0 {
			t.Fatalf("N=%d cold fleet run filled no units remotely: %+v", workers, co.Stats())
		}
		if cold.Incr.UnitsRemote != cold.Incr.UnitsReplayed {
			t.Fatalf("N=%d: %d remote fills but %d replays on a cold store",
				workers, cold.Incr.UnitsRemote, cold.Incr.UnitsReplayed)
		}

		warm, warmDigest := run(t, srcs, cas, co.RunnerFor("t1"))
		if warmDigest != plain {
			t.Fatalf("N=%d warm fleet output differs from single-process", workers)
		}
		if warm.Incr.UnitsLive != 0 || warm.Incr.UnitsRemote != 0 {
			t.Fatalf("N=%d warm run was not a pure replay: live=%d remote=%d",
				workers, warm.Incr.UnitsLive, warm.Incr.UnitsRemote)
		}
	}
}

// TestFleetFilledSupergraph: records a worker filled come from the same
// producer as local ones (cache.NewUnitEntry), so the coordinator's
// merge engines inspect them lazily and render what the plain engine
// renders.
func TestFleetFilledSupergraph(t *testing.T) {
	srcs, _ := workload.MixedTree(3, 8, 41)
	plain, _ := run(t, srcs, nil, nil)
	cas := cache.NewMemStore()
	co := fleet.NewCoordinator(fleet.Config{Workers: startWorkers(t, cas, 2)})
	defer co.Close()
	filled, _ := run(t, srcs, cas, co.RunnerFor("t1"))
	if filled.Incr.UnitsRemote == 0 {
		t.Fatalf("no unit was filled remotely: %+v", co.Stats())
	}
	edges := 0
	for c, en := range plain.Engines {
		for _, fn := range plain.Program.All {
			want := en.SupergraphString(fn.Name)
			edges += strings.Count(want, "->")
			if got := filled.Engines[c].SupergraphString(fn.Name); got != want {
				t.Fatalf("supergraph of %s under %s differs:\nplain:\n%s\nfleet-filled:\n%s", fn.Name, c, want, got)
			}
		}
	}
	if edges == 0 {
		t.Fatal("plain engine rendered no summary edges; the comparison is vacuous")
	}
	if filled.Incr.SummariesLoaded == 0 {
		t.Error("inspection loaded no summary section")
	}
}

// TestFleetSharedCASSecondTenant pins the warm-reuse acceptance bar:
// a second coordinator sharing the CAS replays >= 90% of its units
// without dispatching anything.
func TestFleetSharedCASSecondTenant(t *testing.T) {
	srcs, _ := workload.MixedTree(3, 8, 42)
	cas := cache.NewMemStore()
	co := fleet.NewCoordinator(fleet.Config{Workers: startWorkers(t, cas, 2)})
	defer co.Close()
	_, first := run(t, srcs, cas, co.RunnerFor("tenant-a"))

	co2 := fleet.NewCoordinator(fleet.Config{Workers: startWorkers(t, cas, 2)})
	defer co2.Close()
	second, secondDigest := run(t, srcs, cas, co2.RunnerFor("tenant-b"))
	if secondDigest != first {
		t.Fatal("second tenant's output differs")
	}
	total := second.Incr.UnitsReplayed + second.Incr.UnitsLive
	if total == 0 || second.Incr.UnitsReplayed*10 < total*9 {
		t.Fatalf("second tenant replayed %d of %d units, want >= 90%%",
			second.Incr.UnitsReplayed, total)
	}
	if got := co2.Stats().Dispatched; got != 0 {
		t.Fatalf("second tenant dispatched %d jobs over a warm CAS", got)
	}
}

// TestFleetWorkerLossRequeues kills a worker mid-unit: its jobs must
// requeue to the healthy worker (fleet_requeues > 0), the cache must
// never see a partial entry, and the output must not change.
func TestFleetWorkerLossRequeues(t *testing.T) {
	srcs, _ := workload.MixedTree(3, 8, 43)
	_, plain := run(t, srcs, nil, nil)

	cas := cache.NewMemStore()
	good := startWorkers(t, cas, 1)[0]

	// The doomed worker accepts work and dies mid-unit: the connection
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

	res, got := run(t, srcs, cas, co.RunnerFor("t1"))
	if got != plain {
		t.Fatal("output with a dying worker differs from single-process")
	}
	if res.Degraded || len(res.Failures) > 0 {
		t.Fatalf("worker loss surfaced as degradation: %+v", res.Failures)
	}
	st := co.Stats()
	if killed.Load() > 0 && st.Requeues == 0 {
		t.Fatalf("doomed worker took %d batches but nothing requeued: %+v", killed.Load(), st)
	}
	if st.Dispatched != st.Filled+st.LocalFallback {
		t.Fatalf("job accounting leaked: %+v", st)
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

// TestFleetTenantQuotaRefusesNotFails: a quota of 1 forces most jobs
// onto the local path without changing output.
func TestFleetTenantQuotaRefusesNotFails(t *testing.T) {
	srcs, _ := workload.MixedTree(2, 6, 44)
	_, plain := run(t, srcs, nil, nil)
	cas := cache.NewMemStore()
	co := fleet.NewCoordinator(fleet.Config{Workers: startWorkers(t, cas, 1), TenantQuota: 1})
	defer co.Close()
	_, got := run(t, srcs, cas, co.RunnerFor("greedy"))
	if got != plain {
		t.Fatal("quota-constrained fleet output differs")
	}
	if st := co.Stats(); st.Refused == 0 {
		t.Fatalf("quota of 1 refused nothing: %+v", st)
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

	run(t, srcs, cas, co.RunnerFor("t1"))
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

	run(t, srcs, cas, co.RunnerFor("t1"))
	st := w.Stats()
	if st.CheckersCompiled != int64(len(fleetCheckers)) {
		t.Errorf("worker compiled %d checkers for %d loaded", st.CheckersCompiled, len(fleetCheckers))
	}
	if st.JobsRun <= st.CheckersCompiled {
		t.Fatalf("only %d jobs for %d checkers: the test no longer sends several jobs per checker",
			st.JobsRun, st.CheckersCompiled)
	}
}
