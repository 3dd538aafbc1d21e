package workload

import (
	"strings"
	"testing"

	"repro/internal/prog"
)

func mustBuild(t *testing.T, srcs map[string]string) *prog.Program {
	t.Helper()
	p, err := prog.BuildSource(srcs)
	if err != nil {
		t.Fatalf("generated source does not parse: %v", err)
	}
	return p
}

func TestUseAfterFreeParses(t *testing.T) {
	pr := UseAfterFree(Config{Seed: 1, Functions: 20, BranchesPerFunc: 3, BugRate: 0.3, CallDepth: 4})
	p := mustBuild(t, map[string]string{"w.c": pr.Source})
	if len(p.All) != pr.Funcs {
		t.Errorf("funcs = %d, want %d", len(p.All), pr.Funcs)
	}
	if len(pr.Bugs) == 0 {
		t.Error("no bugs seeded at 30% rate over 20 functions")
	}
	for _, b := range pr.Bugs {
		if b.Kind != "use-after-free" || b.Line <= 0 {
			t.Errorf("bad bug record %+v", b)
		}
	}
}

func TestDeterministic(t *testing.T) {
	a := UseAfterFree(Config{Seed: 7, Functions: 10, BranchesPerFunc: 2, BugRate: 0.5})
	b := UseAfterFree(Config{Seed: 7, Functions: 10, BranchesPerFunc: 2, BugRate: 0.5})
	if a.Source != b.Source || len(a.Bugs) != len(b.Bugs) {
		t.Error("same seed must generate identical programs")
	}
	c := UseAfterFree(Config{Seed: 8, Functions: 10, BranchesPerFunc: 2, BugRate: 0.5})
	if a.Source == c.Source {
		t.Error("different seeds should differ")
	}
}

func TestDiamondChain(t *testing.T) {
	pr := DiamondChain(10)
	p := mustBuild(t, map[string]string{"d.c": pr.Source})
	fn := p.Lookup("diamonds")
	if fn == nil {
		t.Fatal("diamonds missing")
	}
	conds := 0
	for _, b := range fn.Graph.Blocks {
		if b.Cond() != nil {
			conds++
		}
	}
	if conds != 10 {
		t.Errorf("cond blocks = %d, want 10", conds)
	}
}

func TestInstanceScaling(t *testing.T) {
	pr := InstanceScaling(16, 4)
	p := mustBuild(t, map[string]string{"s.c": pr.Source})
	fn := p.Lookup("scaling")
	if fn == nil || len(fn.Decl.Params) != 16 {
		t.Fatalf("scaling params = %v", fn)
	}
}

func TestCallsiteFanout(t *testing.T) {
	pr := CallsiteFanout(12)
	p := mustBuild(t, map[string]string{"c.c": pr.Source})
	h := p.Lookup("helper")
	if h == nil || len(h.Callers) != 12 {
		t.Fatalf("helper callers = %d", len(h.Callers))
	}
}

func TestContradictoryBranches(t *testing.T) {
	pr := ContradictoryBranches(30, 0.2, 3)
	mustBuild(t, map[string]string{"x.c": pr.Source})
	if len(pr.Bugs) == 0 || len(pr.Bugs) > 15 {
		t.Errorf("seeded %d real bugs from 30 funcs at 20%%", len(pr.Bugs))
	}
}

func TestLockReliability(t *testing.T) {
	pr := LockReliability(50, 3, 20)
	mustBuild(t, map[string]string{"l.c": pr.Source})
	if len(pr.Bugs) != 3 {
		t.Errorf("bugs = %d", len(pr.Bugs))
	}
	if !strings.Contains(pr.Source, "acquire_wrapper") {
		t.Error("wrapper functions missing")
	}
}

func TestPairedCalls(t *testing.T) {
	pr := PairedCalls(20, 2, 10, 5)
	mustBuild(t, map[string]string{"p.c": pr.Source})
}

func TestLinuxLike(t *testing.T) {
	srcs := LinuxLike(4, 12, 11)
	if len(srcs) != 4 {
		t.Fatalf("files = %d", len(srcs))
	}
	p := mustBuild(t, srcs)
	if len(p.All) != 4*12 {
		t.Errorf("functions = %d, want 48", len(p.All))
	}
	// Static per-file variables should be registered as statics.
	found := 0
	for name := range p.Statics {
		if strings.HasPrefix(name, "file_stat_") {
			found++
		}
	}
	if found == 0 {
		t.Error("per-file statics not registered")
	}
}

func TestMixedTree(t *testing.T) {
	srcs, bugs := MixedTree(3, 20, 17)
	p := mustBuild(t, srcs)
	if len(p.All) != 60 {
		t.Errorf("functions = %d", len(p.All))
	}
	if len(bugs) == 0 {
		t.Fatal("no bugs seeded")
	}
	kinds := map[string]int{}
	for _, b := range bugs {
		kinds[b.Kind]++
		if b.Func == "" || b.Line <= 0 {
			t.Errorf("bad bug %+v", b)
		}
	}
	if len(kinds) < 3 {
		t.Errorf("bug variety too low: %v", kinds)
	}
	// Deterministic.
	srcs2, bugs2 := MixedTree(3, 20, 17)
	if len(bugs2) != len(bugs) {
		t.Error("not deterministic")
	}
	for name := range srcs {
		if srcs[name] != srcs2[name] {
			t.Error("sources differ across runs")
		}
	}
}

func TestNextVersion(t *testing.T) {
	srcs, _ := MixedTree(2, 10, 3)
	v2, bug := NextVersion(srcs)
	if len(v2) != len(srcs) {
		t.Fatalf("file count changed: %d vs %d", len(v2), len(srcs))
	}
	mustBuild(t, v2)
	if bug.Func != "v2_regression" {
		t.Errorf("bug = %+v", bug)
	}
	found := false
	for _, src := range v2 {
		if strings.Contains(src, "v2_regression") {
			found = true
		}
	}
	if !found {
		t.Error("new buggy function missing")
	}
}
