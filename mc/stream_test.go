package mc

// Determinism property of retirement (DESIGN.md §12): every run retires
// what it has finished with, and every configuration — any parallelism,
// through a cold or warm incremental cache, or none — must produce
// output byte-identical to that of engines that retire nothing: one
// core.Engine per checker nobody called SetRetire on, phase by phase
// over one prog.Build (residentReference).

import (
	"context"
	"crypto/sha256"
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/feas"
	"repro/internal/prog"
	"repro/internal/rank"
	"repro/internal/report"
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
// checker in core.PlanPhases order over one prog.Build, their report
// streams and rule counts merged in checker load order.
func residentReference(t *testing.T, a *Analyzer) *Result {
	t.Helper()
	files, err := a.parseSources(&IncrStats{})
	if err != nil {
		t.Fatal(err)
	}
	p := prog.Build(files...)
	for _, m := range a.sortedMarks() {
		a.shared.Mark(m.name, m.key)
	}
	compiled := core.CompileDispatch(p, a.checkers)
	engines := make([]*core.Engine, len(a.checkers))
	for _, phase := range core.PlanPhases(a.checkers) {
		for _, ci := range phase {
			engines[ci] = a.liveEngine(p, ci, compiled)
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

// reportSetDigest hashes the raw emission-order report stream,
// deliberately ignoring the verdict fields and ranking: the
// feasibility pass reorders Ranked() by design (confirmed first,
// infeasible last) but must never add, remove, or reword a report.
func reportSetDigest(res *Result) string {
	var sb strings.Builder
	for _, r := range res.Reports {
		sb.WriteString(r.Detailed())
	}
	return fmt.Sprintf("%x", sha256.Sum256([]byte(sb.String())))
}

// TestVerifyDeterminismMatrix extends the streaming matrix to the
// feasibility pass (DESIGN.md §13): with the pass on or off, at any
// parallelism, through no cache, a cold cache, or a warm cache (where
// verdicts replay content-addressed), the report set must be
// byte-identical and the verdict assignment itself must be identical
// in every verify-on cell. The reference cell is also held to the
// population's ground truth — every seeded true positive confirmed,
// every reported false positive infeasible, nothing unknown — and a
// warm cell must take every verdict from the cache.
func TestVerifyDeterminismMatrix(t *testing.T) {
	pr := workload.FeasPopulation(200, 2002)
	seeded := map[string]bool{}
	for _, b := range pr.Bugs {
		seeded[b.Func] = true
	}

	run := func(jobs int, store cache.Store, verify bool) (*Result, map[string]string, feas.Stats) {
		t.Helper()
		a := NewAnalyzer()
		if err := a.Configure(RunConfig{Jobs: jobs, CacheStore: store}); err != nil {
			t.Fatal(err)
		}
		a.AddSource("feas.c", pr.Source)
		if err := a.LoadBundledChecker("free"); err != nil {
			t.Fatal(err)
		}
		res, err := a.RunContext(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		var verdicts map[string]string
		var stats feas.Stats
		if verify {
			stats = a.Verify(res, jobs)
			verdicts = map[string]string{}
			for _, r := range res.Reports {
				verdicts[r.Pos.String()+"|"+r.Msg] = r.Verdict
			}
		}
		return res, verdicts, stats
	}

	refRes, _, _ := run(1, nil, false)
	ref := reportSetDigest(refRes)
	if len(refRes.Reports) == 0 {
		t.Fatal("reference run produced no reports; workload regressed")
	}

	var verdictRef map[string]string
	for _, verify := range []bool{false, true} {
		store := cache.NewMemStore()
		cells := []struct {
			name  string
			jobs  int
			store cache.Store
		}{
			{"nocache/-j1", 1, nil},
			{"nocache/-j8", 8, nil},
			{"cold/-j1", 1, store},
			{"warm/-j1", 1, store},
			{"warm/-j8", 8, store},
		}
		for _, c := range cells {
			name := fmt.Sprintf("verify=%v/%s", verify, c.name)
			res, verdicts, stats := run(c.jobs, c.store, verify)
			if got := reportSetDigest(res); got != ref {
				t.Errorf("%s: report set differs from the verify-off reference", name)
			}
			if !verify {
				continue
			}
			if strings.HasPrefix(c.name, "warm/") && stats.CacheHits != int64(len(res.Reports)) {
				t.Errorf("%s: %d verdict cache hits for %d reports", name, stats.CacheHits, len(res.Reports))
			}
			if verdictRef == nil {
				verdictRef = verdicts
				want := map[bool]string{true: report.VerdictConfirmed, false: report.VerdictInfeasible}
				got := map[string]int{}
				for _, r := range res.Reports {
					got[r.Verdict]++
					if r.Verdict != want[seeded[r.Func]] {
						t.Errorf("%s: %s (seeded bug: %v) judged %q: %s", name, r.Func, seeded[r.Func], r.Verdict, r.VerdictWhy)
					}
				}
				if got[report.VerdictConfirmed] != len(pr.Bugs) || got[report.VerdictInfeasible] == 0 {
					t.Errorf("%s: verdicts %v over %d seeded bugs; a seeded bug went unreported or no false positive was reported", name, got, len(pr.Bugs))
				}
				continue
			}
			if len(verdicts) != len(verdictRef) {
				t.Fatalf("%s: %d verdicts, reference has %d", name, len(verdicts), len(verdictRef))
			}
			for k, v := range verdictRef {
				if verdicts[k] != v {
					t.Errorf("%s: verdict for %s = %q, reference %q", name, k, verdicts[k], v)
				}
			}
		}
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
		if sp := res.Spill; sp.Evictions == 0 && (res.Incr == nil || res.Incr.UnitsLive > 0) || sp.ASTsReleased == 0 {
			t.Errorf("%s: the run retired nothing: %+v", name, sp)
		}
	}

	// Plain path at each parallelism.
	for _, jobs := range []int{1, 8} {
		check(fmt.Sprintf("plain/-j%d", jobs), streamRun(t, srcs, jobs, nil))
	}

	// Cached path: cold, then warm at both parallelisms. A replayed unit
	// is never traversed, so a fully warm run evicts nothing; its ASTs
	// go all the same.
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
// nothing and costs O(1) objects beyond the engines' own (the unit list
// is built once, in a handful of objects whatever the tree's size:
// TestUnitsMatchReference in internal/prog). Allocation counts repeat
// exactly, so the bound is tight: an mc run of the bundled suite over
// the call-rich tree allocates 8,732 objects against the 8,558 of the
// engines that retire nothing, 1.020x. 154 of the 174 are mc's task and
// merge bookkeeping, which its resident path paid too (8,697 against
// 8,543 at PR 22); retirement's own are one counter slice per engine and
// the releaser. (1.27x while retirement encoded every summary for a
// store nothing read.)
func TestStreamingAllocatesLikePlain(t *testing.T) {
	srcs := workload.CallRichTree()
	resident := testing.AllocsPerRun(3, func() { residentReference(t, streamAnalyzer(t, srcs, 1, nil)) })
	var res *Result
	retiring := testing.AllocsPerRun(3, func() { res = streamRun(t, srcs, 1, nil) })
	t.Logf("allocations per suite run: resident engines %.0f, mc run %.0f (%.3fx)", resident, retiring, retiring/resident)
	if retiring > 1.025*resident {
		t.Errorf("the mc run allocates %.0f, the resident engines %.0f: %.3fx, want <= 1.025x", retiring, resident, retiring/resident)
	}
	if res.Spill.Evictions == 0 || res.Spill.ASTsReleased == 0 {
		t.Errorf("the run retired nothing: %+v", res.Spill)
	}
}

// TestStreamingTouchesNoFile: retirement is a drop, so a run needs no
// directory to put anything in. With TMPDIR pointing at a path that
// does not exist the run completes with the resident reference's output
// (it failed in os.MkdirTemp while there was a spill store).
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
