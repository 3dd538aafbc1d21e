package core

import (
	"context"
	"fmt"
	"sort"
	"testing"

	"repro/internal/checkers"
	"repro/internal/metal"
	"repro/internal/prog"
	"repro/internal/report"
	"repro/internal/workload"
)

// These tests pin the central soundness-of-implementation property of
// the caching machinery: block and function caches are pure
// memoization — switching them off must never change WHICH errors are
// reported, only how much work finding them takes (§5.2, §6.2).

func reportKeys(rs *report.Set) []string {
	var out []string
	for _, r := range rs.Reports {
		out = append(out, fmt.Sprintf("%s|%s|%s", r.Pos, r.Checker, r.Msg))
	}
	sort.Strings(out)
	return out
}

func equalKeys(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func runWith(t *testing.T, p *prog.Program, checkerSrc string, opts Options) *report.Set {
	t.Helper()
	c, err := metal.Parse(checkerSrc)
	if err != nil {
		t.Fatal(err)
	}
	en := NewEngine(p, c, opts)
	return en.RunContext(context.Background())
}

// rebuild re-assembles a fresh Program (fresh *Function identities, so
// every engine below starts cold) from source. Programs no longer
// retain their parsed files (DESIGN.md §12), so a fresh build means a
// fresh parse.
func rebuild(t *testing.T, name string, srcs map[string]string) *prog.Program {
	t.Helper()
	p, err := prog.BuildSource(srcs)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return p
}

func checkCacheConsistency(t *testing.T, name string, srcs map[string]string, checkerSrc string) {
	t.Helper()
	base := DefaultOptions()
	base.Budgets.FuncBlocks = 3_000_000

	full := reportKeys(runWith(t, rebuild(t, name, srcs), checkerSrc, base))

	noBlock := base
	noBlock.BlockCache = false
	if got := reportKeys(runWith(t, rebuild(t, name, srcs), checkerSrc, noBlock)); !equalKeys(got, full) {
		t.Errorf("%s: block cache changed reports:\n  with:    %v\n  without: %v", name, full, got)
	}

	noFunc := base
	noFunc.FunctionCache = false
	if got := reportKeys(runWith(t, rebuild(t, name, srcs), checkerSrc, noFunc)); !equalKeys(got, full) {
		t.Errorf("%s: function cache changed reports:\n  with:    %v\n  without: %v", name, full, got)
	}

	noneOpts := base
	noneOpts.BlockCache = false
	noneOpts.FunctionCache = false
	if got := reportKeys(runWith(t, rebuild(t, name, srcs), checkerSrc, noneOpts)); !equalKeys(got, full) {
		t.Errorf("%s: both caches changed reports:\n  with:    %v\n  without: %v", name, full, got)
	}
}

func TestCacheConsistencyFig2(t *testing.T) {
	checkCacheConsistency(t, "fig2", map[string]string{"fig2.c": fig2}, freeChecker)
}

func TestCacheConsistencyUAFWorkload(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		pr := workload.UseAfterFree(workload.Config{
			Seed: seed, Functions: 12, BranchesPerFunc: 3, BugRate: 0.4, CallDepth: 3,
		})
		checkCacheConsistency(t, fmt.Sprintf("uaf-seed%d", seed),
			map[string]string{"w.c": pr.Source}, freeChecker)
	}
}

func TestCacheConsistencyContradictory(t *testing.T) {
	pr := workload.ContradictoryBranches(20, 0.3, 5)
	checkCacheConsistency(t, "contra", map[string]string{"x.c": pr.Source}, freeChecker)
}

func TestCacheConsistencyLocks(t *testing.T) {
	pr := workload.LockReliability(20, 3, 8)
	checkCacheConsistency(t, "locks", map[string]string{"l.c": pr.Source}, lockChecker)
}

func TestCacheConsistencyLinuxLike(t *testing.T) {
	srcs := workload.LinuxLike(3, 10, 13)
	for _, cs := range []struct{ name, src string }{
		{"free", checkers.Free},
		{"lock", checkers.Lock},
		{"null", checkers.Null},
		{"interrupt", checkers.Interrupt},
	} {
		checkCacheConsistency(t, "linuxlike/"+cs.name, srcs, cs.src)
	}
}

// The caches must also leave the z-statistic evidence usable: rule
// violations (= reports) match, and examples may only shrink with
// caching (a cached path skips re-counting) — never grow.
func TestCacheExampleCountsBounded(t *testing.T) {
	pr := workload.LockReliability(20, 2, 5)
	srcs := map[string]string{"l.c": pr.Source}
	c, err := metal.Parse(checkers.Lock)
	if err != nil {
		t.Fatal(err)
	}
	cached := NewEngine(rebuild(t, "examples", srcs), c, DefaultOptions())
	cached.RunContext(context.Background())
	off := DefaultOptions()
	off.BlockCache = false
	off.FunctionCache = false
	uncached := NewEngine(rebuild(t, "examples", srcs), c, off)
	uncached.RunContext(context.Background())

	rcC, rcU := cached.RuleStats["lock"], uncached.RuleStats["lock"]
	if rcC == nil || rcU == nil {
		t.Fatal("missing rule stats")
	}
	if rcC.Violations != rcU.Violations {
		t.Errorf("violations differ: cached %d vs uncached %d", rcC.Violations, rcU.Violations)
	}
	if rcC.Examples > rcU.Examples {
		t.Errorf("caching grew example counts: %d > %d", rcC.Examples, rcU.Examples)
	}
	if rcC.Examples == 0 {
		t.Error("cached run counted no examples at all")
	}
}
