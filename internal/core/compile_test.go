package core

// Compiled multi-checker dispatch tests (DESIGN.md §11): the union
// automaton must (a) skip exactly the (checker, root) pairs that
// provably fire nothing, and (b) never change which reports an engine
// emits — with or without the automaton attached, the output is
// identical.

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/checkers"
	"repro/internal/metal"
	"repro/internal/workload"
)

func mustChecker(t *testing.T, src string) *metal.Checker {
	t.Helper()
	c, err := metal.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestDispatchWholeCheckerSkip: in a program that only frees, the lock
// checker's initial transitions can never fire, so the compiler proves
// the whole checker a no-op; the free checker stays live.
func TestDispatchWholeCheckerSkip(t *testing.T) {
	free := mustChecker(t, checkers.Free)
	lock := mustChecker(t, checkers.Lock)
	p := buildProg(t, map[string]string{"a.c": `
void kfree(void *p);
int f(int *p) { kfree(p); return *p; }
`})
	cd := CompileDispatch(p, []*metal.Checker{free, lock})
	if cd.skipAll[1] != true {
		t.Error("lock checker should be provably skippable: no lock-family callee anywhere")
	}
	if cd.skipAll[0] != false {
		t.Error("free checker must stay live: kfree is called")
	}
	for _, root := range p.Roots {
		if !cd.SkipRoot(1, root) {
			t.Errorf("SkipRoot(lock, %s) = false, want true", root.Name)
		}
		if cd.SkipRoot(0, root) {
			t.Errorf("SkipRoot(free, %s) = true, want false", root.Name)
		}
	}
}

// TestDispatchPerRootSkip: two disjoint call trees — the free checker
// is skippable over the lock-only root and vice versa, even though
// neither is skippable program-wide.
func TestDispatchPerRootSkip(t *testing.T) {
	free := mustChecker(t, checkers.Free)
	lock := mustChecker(t, checkers.Lock)
	p := buildProg(t, map[string]string{"a.c": `
void kfree(void *p);
void lock(void *l);
void unlock(void *l);
void free_leaf(int *p) { kfree(p); }
void lock_leaf(int *l) { lock(l); unlock(l); }
int free_root(int *p) { free_leaf(p); return 0; }
int lock_root(int *l) { lock_leaf(l); return 0; }
`})
	cd := CompileDispatch(p, []*metal.Checker{free, lock})
	if cd.skipAll[0] || cd.skipAll[1] {
		t.Fatal("neither checker is skippable program-wide here")
	}
	freeRoot := p.Lookup("free_root")
	lockRoot := p.Lookup("lock_root")
	if freeRoot == nil || lockRoot == nil {
		t.Fatal("roots not found")
	}
	if cd.SkipRoot(0, freeRoot) {
		t.Error("free checker must run over free_root")
	}
	if !cd.SkipRoot(0, lockRoot) {
		t.Error("free checker should skip lock_root: no kfree in its closure")
	}
	if cd.SkipRoot(1, lockRoot) {
		t.Error("lock checker must run over lock_root")
	}
	if !cd.SkipRoot(1, freeRoot) {
		t.Error("lock checker should skip free_root: no lock-family callee in its closure")
	}
	// An unknown function (not a root) stays conservative.
	if cd.SkipRoot(0, p.Lookup("free_leaf")) {
		t.Error("non-root lookup must not claim a skip")
	}
}

// TestDispatchGlobalCheckerNotOverSkipped: interrupt is a pure
// global-state checker with an $end_of_path$ transition reachable from
// a non-initial state; only the cli/sti literals gate its initial
// state, so a cli-free program skips it but a cli-bearing one must not.
func TestDispatchGlobalCheckerNotOverSkipped(t *testing.T) {
	intr := mustChecker(t, checkers.Interrupt)
	noCli := buildProg(t, map[string]string{"a.c": "int f(void) { return 1; }"})
	cd := CompileDispatch(noCli, []*metal.Checker{intr})
	if !cd.skipAll[0] {
		t.Error("interrupt checker should skip a program with no cli/sti")
	}
	withCli := buildProg(t, map[string]string{"a.c": `
void cli(void);
int f(void) { cli(); return 1; }
`})
	cd = CompileDispatch(withCli, []*metal.Checker{intr})
	if cd.skipAll[0] {
		t.Error("interrupt checker must run: cli() starts the protocol")
	}
}

// suiteRun is what one full-suite run exposes per checker, in load
// order: the report stream in emission order, the rule counts, and the
// composition marks it emitted.
type suiteRun struct {
	reports [][]string
	rules   []map[string]RuleCount
	marks   [][]MarkEvent
}

// runSuite applies the whole bundled suite to a fresh build of srcs,
// phase by phase over one shared annotation store (the -j 1 schedule),
// with the compiled dispatch attached to every engine or to none.
func runSuite(t *testing.T, srcs map[string]string, compiled bool) suiteRun {
	t.Helper()
	p := buildProg(t, srcs)
	var cs []*metal.Checker
	for _, s := range checkers.All() {
		cs = append(cs, mustChecker(t, s.Text))
	}
	shared := NewShared()
	shared.Mark("net_wait", "blocking")
	shared.Mark("disk_sync", "blocking")

	engines := make([]*Engine, len(cs))
	var cd *CompiledDispatch
	if compiled {
		cd = CompileDispatch(p, cs)
	}
	for i, c := range cs {
		engines[i] = NewEngineShared(p, c, DefaultOptions(), shared)
		if compiled {
			engines[i].SetCompiled(cd, i)
		}
	}
	for _, phase := range PlanPhases(cs) {
		for _, i := range phase {
			engines[i].Run()
		}
	}

	var out suiteRun
	for _, en := range engines {
		var keys []string
		for _, r := range en.Reports.Reports {
			keys = append(keys, fmt.Sprintf("%s|%s|%s|%s|%s", r.Pos, r.Checker, r.Rule, r.Class, r.Msg))
		}
		rules := map[string]RuleCount{}
		for rule, rc := range en.RuleStats {
			rules[rule] = *rc
		}
		out.reports = append(out.reports, keys)
		out.rules = append(out.rules, rules)
		out.marks = append(out.marks, en.MarkLog)
	}
	return out
}

// TestDispatchEquivalence: the compiled automaton changes no output
// byte. The full bundled suite runs over the seeded mixed tree and over
// a call-rich multi-root tree, every engine with SetCompiled against
// every engine on the per-engine reference path (featsOf/admits); each
// checker's report stream (in emission order), rule counts and mark
// log must be identical.
func TestDispatchEquivalence(t *testing.T) {
	mixed, _ := workload.MixedTree(4, 25, 2002)
	for _, tc := range []struct {
		name string
		srcs map[string]string
	}{{"mixed", mixed}, {"call-rich", workload.CallRichTree()}} {
		t.Run(tc.name, func(t *testing.T) {
			ref := runSuite(t, tc.srcs, false)
			got := runSuite(t, tc.srcs, true)
			total := 0
			for i, s := range checkers.All() {
				total += len(ref.reports[i])
				if !reflect.DeepEqual(ref.reports[i], got.reports[i]) {
					t.Errorf("%s: compiled dispatch changed reports:\n  reference: %v\n  compiled:  %v",
						s.Name, ref.reports[i], got.reports[i])
				}
				if !reflect.DeepEqual(ref.rules[i], got.rules[i]) {
					t.Errorf("%s: compiled dispatch changed rule counts:\n  reference: %v\n  compiled:  %v",
						s.Name, ref.rules[i], got.rules[i])
				}
				if !reflect.DeepEqual(ref.marks[i], got.marks[i]) {
					t.Errorf("%s: compiled dispatch changed the mark log:\n  reference: %v\n  compiled:  %v",
						s.Name, ref.marks[i], got.marks[i])
				}
			}
			if total == 0 {
				t.Fatal("reference run produced no reports; the comparison is vacuous")
			}
		})
	}
}
