package core

import (
	"testing"

	"repro/internal/checkers"
	"repro/internal/workload"
)

// The §8 experiments whose counts `mcbench -exp e3,e4` prints
// (EXPERIMENTS.md E3, E4), asserted.

// TestE3FalsePathPruningCounts: over 100 generated functions with a
// contradictory-branch site each, 17 of them seeded with a real bug,
// false path pruning leaves exactly the 17 real reports and prunes 200
// paths; without it every infeasible site fires.
func TestE3FalsePathPruningCounts(t *testing.T) {
	pr := workload.ContradictoryBranches(100, 0.2, 42)
	srcs := map[string]string{"x.c": pr.Source}
	seeded := map[string]bool{}
	for _, b := range pr.Bugs {
		seeded[b.Func] = true
	}
	if len(seeded) != 17 {
		t.Fatalf("workload seeds %d bugs, want 17", len(seeded))
	}

	on, rsOn := runChecker(t, checkers.Free, srcs, DefaultOptions())
	reported := map[string]bool{}
	for _, r := range rsOn.Reports {
		if !seeded[r.Func] {
			t.Errorf("FPP on: false positive in %s: %s", r.Func, r.Msg)
		}
		reported[r.Func] = true
	}
	if rsOn.Len() != 17 || len(reported) != 17 {
		t.Errorf("FPP on: %d reports in %d functions, want 17 in the 17 seeded ones", rsOn.Len(), len(reported))
	}
	if on.Stats.PrunedPaths != 200 {
		t.Errorf("FPP on: %d pruned paths, want 200", on.Stats.PrunedPaths)
	}

	opts := DefaultOptions()
	opts.FPP = false
	_, rsOff := runChecker(t, checkers.Free, srcs, opts)
	falsePositives := 0
	for _, r := range rsOff.Reports {
		if !seeded[r.Func] {
			falsePositives++
		}
	}
	if falsePositives != 83 {
		t.Errorf("FPP off: %d false positives, want 83 (every infeasible site)", falsePositives)
	}
}

// TestE4SynonymCounts: assignment synonyms catch the use at the end of
// a copy chain, and mirror a successful NULL check from p to q in the
// paper's own "p = q = kmalloc" example.
func TestE4SynonymCounts(t *testing.T) {
	const chain = `
void *kmalloc(unsigned long n);
void kfree(void *p);
int chain(int n) {
    int *p, *q, *r;
    p = kmalloc(n);
    kfree(p);
    q = p;
    r = q;
    return *r;
}`
	const nullCheck = `
void *kmalloc(unsigned long n);
int f(unsigned long n) {
    int *p, *q;
    p = q = kmalloc(n);
    if (!p)
        return 0;
    return *q;
}`
	for _, tc := range []struct {
		name, checker, src string
		on, off            int
	}{
		{"copy chain: the bug is found", checkers.Free, chain, 1, 0},
		{"p = q = kmalloc: the false positive is cleared", checkers.Null, nullCheck, 0, 1},
	} {
		opts := DefaultOptions()
		_, rsOn := runChecker(t, tc.checker, map[string]string{"s.c": tc.src}, opts)
		opts.Synonyms = false
		_, rsOff := runChecker(t, tc.checker, map[string]string{"s.c": tc.src}, opts)
		if rsOn.Len() != tc.on || rsOff.Len() != tc.off {
			t.Errorf("%s: %d reports with synonyms, %d without; want %d and %d",
				tc.name, rsOn.Len(), rsOff.Len(), tc.on, tc.off)
		}
	}
}
