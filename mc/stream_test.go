package mc

// Determinism property of retirement (DESIGN.md §12): every run retires
// what it has finished with, and every configuration — any parallelism,
// through a cold or warm incremental cache, or none — must produce
// output byte-identical to that of engines that retire nothing: one
// core.Engine per checker nobody called SetRetire on, phase by phase
// over one whole program (residentReference).

import (
	"context"
	"crypto/sha256"
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/rank"
	"repro/internal/workload"
)

// streamAnalyzer loads srcs and the full bundled suite under the given
// parallelism and cache store (nil = plain path).
func streamAnalyzer(t *testing.T, srcs map[string]string, jobs int, store cache.Store) *Analyzer {
	t.Helper()
	a := NewAnalyzer()
	if err := a.Configure(RunConfig{Jobs: jobs, CacheStore: store}); err != nil {
		t.Fatal(err)
	}
	for name, src := range srcs {
		a.AddSource(name, src)
	}
	for _, s := range BundledCheckers() {
		if err := a.LoadBundledChecker(s.Name); err != nil {
			t.Fatal(err)
		}
	}
	a.MarkFunction("net_wait", "blocking")
	return a
}

// streamRun analyzes srcs with the full bundled suite.
func streamRun(t *testing.T, srcs map[string]string, jobs int, store cache.Store) *Result {
	t.Helper()
	res, err := streamAnalyzer(t, srcs, jobs, store).RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// residentReference is what the product is held to: the analyzer's
// sources and checkers run on engines that retire nothing, one per
// checker in core.PlanPhases order over one program built whole by the
// run's own pass 1, their report streams and rule counts merged in
// checker load order.
func residentReference(t *testing.T, a *Analyzer) *Result {
	t.Helper()
	p, err := a.program()
	if err != nil {
		t.Fatal(err)
	}
	shared := a.preMarked()
	compiled := core.CompileDispatch(p, a.checkers)
	engines := make([]*core.Engine, len(a.checkers))
	for _, phase := range core.PlanPhases(a.checkers) {
		for _, ci := range phase {
			engines[ci] = a.liveEngine(p, ci, compiled, shared)
			engines[ci].RunContext(context.Background())
		}
	}
	res := &Result{Program: p, RuleStats: map[string]rank.RuleStat{}}
	for _, en := range engines {
		if en.Evictions != 0 {
			t.Fatal("the reference engine retired something")
		}
		res.Reports = append(res.Reports, en.Reports.Reports...)
		for rule, rc := range en.RuleStats {
			prev := res.RuleStats[rule]
			prev.Rule = rule
			prev.Examples += rc.Examples
			prev.Violations += rc.Violations
			res.RuleStats[rule] = prev
		}
	}
	return res
}

// streamDigest hashes everything a user would diff: the ranked,
// why-traced reports plus the grouped z-statistics.
func streamDigest(res *Result) string {
	var sb strings.Builder
	for _, r := range res.Ranked() {
		sb.WriteString(r.Detailed())
	}
	for _, g := range res.Grouped() {
		fmt.Fprintf(&sb, "%s %.3f %d\n", g.Rule, g.Z, len(g.Reports))
	}
	return fmt.Sprintf("%x", sha256.Sum256([]byte(sb.String())))
}

// TestPruningDeterminismMatrix holds the §8 pruner to the ground truth
// of a population written for it (workload.FeasPopulation): half its
// functions are false positives only a closure that compares a class's
// constant with the orderings into it can see, the other half seeded
// bugs. At any parallelism, through no cache, a cold cache or a warm
// one, the run reports exactly the seeded bugs — the false paths are
// pruned during traversal and never reach a report.
func TestPruningDeterminismMatrix(t *testing.T) {
	pr := workload.FeasPopulation(200, 2002)
	seeded := map[string]bool{}
	for _, b := range pr.Bugs {
		seeded[b.Func] = true
	}
	run := func(jobs int, store cache.Store) *Result {
		t.Helper()
		a := NewAnalyzer()
		if err := a.Configure(RunConfig{Jobs: jobs, CacheStore: store}); err != nil {
			t.Fatal(err)
		}
		a.AddSource("pop.c", pr.Source)
		if err := a.LoadBundledChecker("free"); err != nil {
			t.Fatal(err)
		}
		res, err := a.RunContext(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	ref := run(1, nil)
	if got := ref.Stats["free_checker"].PrunedPaths; got != 150 {
		t.Errorf("-j1, no cache: %d pruned paths, want 150 (8 before the closure checked bounds into a class)", got)
	}
	want := streamDigest(ref)
	for _, jobs := range []int{1, 8} {
		store := cache.NewMemStore()
		for _, c := range []struct {
			name  string
			store cache.Store
		}{{"nocache", nil}, {"cold", store}, {"warm", store}} {
			name := fmt.Sprintf("%s/-j%d", c.name, jobs)
			res := run(jobs, c.store)
			reported := map[string]bool{}
			for _, r := range res.Reports {
				reported[r.Func] = true
				if strings.HasPrefix(r.Func, "feas_fp_") {
					t.Errorf("%s: false positive reported: %s", name, r)
				}
			}
			if len(res.Reports) != len(pr.Bugs) {
				t.Errorf("%s: %d reports, want the %d seeded bugs", name, len(res.Reports), len(pr.Bugs))
			}
			for f := range seeded {
				if !reported[f] {
					t.Errorf("%s: seeded bug in %s not reported", name, f)
				}
			}
			if got := streamDigest(res); got != want {
				t.Errorf("%s: output differs from -j1 with no cache", name)
			}
		}
	}
}

// TestVerifyStoresNothing: Verify is an empty vestige. On a finished
// cold run it counts nothing, leaves every report as it was and puts
// nothing in the store.
func TestVerifyStoresNothing(t *testing.T) {
	store := cache.NewMemStore()
	a := NewAnalyzer()
	if err := a.Configure(RunConfig{Jobs: 1, CacheStore: store}); err != nil {
		t.Fatal(err)
	}
	a.AddSource("pop.c", workload.FeasPopulation(20, 2002).Source)
	if err := a.LoadBundledChecker("free"); err != nil {
		t.Fatal(err)
	}
	res, err := a.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	units, before := store.Len(), streamDigest(res)
	if units == 0 || int64(units) != res.Incr.CachePuts || len(res.Reports) == 0 {
		t.Fatalf("cold run: %d store keys, %d puts, %d reports", units, res.Incr.CachePuts, len(res.Reports))
	}
	if st := a.Verify(res, 1); st.Done != 0 || st.Unknown != 0 {
		t.Errorf("Verify counted %+v, want nothing", st)
	}
	if got := store.Len(); got != units {
		t.Errorf("store holds %d keys after Verify, %d unit records before it", got, units)
	}
	if streamDigest(res) != before {
		t.Error("Verify changed the reports")
	}
}

func TestStreamingDeterminismMatrix(t *testing.T) {
	srcs, _ := workload.MixedTree(3, 12, 7)

	refRes := residentReference(t, streamAnalyzer(t, srcs, 1, nil))
	ref := streamDigest(refRes)
	if len(refRes.Reports) == 0 {
		t.Fatal("reference run produced no reports; workload regressed")
	}

	check := func(name string, res *Result) {
		t.Helper()
		if got := streamDigest(res); got != ref {
			t.Errorf("%s: output differs from the resident reference", name)
		}
		if sp := res.Spill; sp.Evictions == 0 && (res.Incr == nil || res.Incr.UnitsLive > 0) || res.Incr == nil && sp.ASTsReleased == 0 {
			t.Errorf("%s: the run retired nothing: %+v", name, sp)
		}
		// Every body the run parsed is released, and only those.
		if res.Incr != nil && res.Spill.ASTsReleased != int64(res.Incr.BodiesParsed) {
			t.Errorf("%s: released %d bodies, parsed %d", name, res.Spill.ASTsReleased, res.Incr.BodiesParsed)
		}
	}

	// Plain path at each parallelism.
	for _, jobs := range []int{1, 8} {
		check(fmt.Sprintf("plain/-j%d", jobs), streamRun(t, srcs, jobs, nil))
	}

	// Cached path: cold, then warm at both parallelisms. A replayed unit
	// is never traversed, so a fully warm run evicts nothing; nor does it
	// parse a body, so it has no AST to release.
	warmed := cache.NewMemStore()
	check("cached/cold", streamRun(t, srcs, 1, warmed))
	for _, jobs := range []int{1, 8} {
		name := fmt.Sprintf("cached/warm/-j%d", jobs)
		res := streamRun(t, srcs, jobs, warmed)
		check(name, res)
		if res.Incr == nil || res.Incr.UnitsReplayed == 0 {
			t.Errorf("%s: nothing replayed from the warm store", name)
		}
	}
}

// TestStreamingAllocatesLikePlain: retirement serialises nothing, hashes
// nothing and costs O(1) objects beyond the engines' own. An mc run of
// the bundled suite over the call-rich tree allocates 4,587 objects
// against the 4,423 of engines that retire nothing (go1.24), 164 more
// (166 under -race, which jitters it: hence 20 runs a side); 4,305
// against 4,140, 165 more, since a function's tables are arrays; 4,100
// against 3,957, 143 more (also under -race), since the merge adopts a
// checker's stats when it ran as one task; 4,132 against 3,985, 147
// more, since a run without a store skims and builds its units as a
// run with one does, and the reference builds its program by the same
// pass 1 (Analyzer.program); 4,121 against 3,976, 145 more (also under
// -race), since a phase whose units are all built allocates nothing to
// build them. The bound
// is that excess + 5 %, absolute (PR 37). The excess is mostly mc's task
// and merge bookkeeping; retirement's own is one counter slice per
// engine and the releaser (DESIGN §12.3).
func TestStreamingAllocatesLikePlain(t *testing.T) {
	const maxExcess = 150
	srcs := workload.CallRichTree()
	resident := testing.AllocsPerRun(20, func() { residentReference(t, streamAnalyzer(t, srcs, 1, nil)) })
	var res *Result
	retiring := testing.AllocsPerRun(20, func() { res = streamRun(t, srcs, 1, nil) })
	t.Logf("allocations per suite run: resident engines %.0f, mc run %.0f (%.0f more)", resident, retiring, retiring-resident)
	if retiring-resident > maxExcess {
		t.Errorf("the mc run allocates %.0f, the resident engines %.0f: %.0f more, want <= %d", retiring, resident, retiring-resident, maxExcess)
	}
	if res.Spill.Evictions == 0 || res.Spill.ASTsReleased == 0 {
		t.Errorf("the run retired nothing: %+v", res.Spill)
	}
}

func TestStreamingTouchesNoFile(t *testing.T) {
	srcs, _ := workload.MixedTree(2, 10, 7)
	ref := streamDigest(residentReference(t, streamAnalyzer(t, srcs, 2, nil)))
	t.Setenv("TMPDIR", filepath.Join(t.TempDir(), "does", "not", "exist"))
	res := streamRun(t, srcs, 2, nil)
	if got := streamDigest(res); got != ref {
		t.Error("the run's output differs from the resident reference's")
	}
	if res.Spill.Evictions == 0 || res.Spill.ASTsReleased == 0 {
		t.Errorf("the run retired nothing: %+v", res.Spill)
	}
}
