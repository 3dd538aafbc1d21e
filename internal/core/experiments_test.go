package core_test

import (
	"io"
	"testing"

	"repro/internal/paper"
)

// The §8 experiments whose counts `mcbench -exp e3,e4` prints
// (EXPERIMENTS.md E3, E4), asserted on the counts internal/paper's
// experiments return.

// TestE3FalsePathPruningCounts: over 100 generated functions with a
// contradictory-branch site each, 17 of them seeded with a real bug,
// false path pruning leaves exactly the 17 real reports and prunes 200
// paths; without it every infeasible site fires.
func TestE3FalsePathPruningCounts(t *testing.T) {
	c := paper.E3(io.Discard)
	if c.Seeded != 17 {
		t.Fatalf("workload seeds %d bugs, want 17", c.Seeded)
	}
	if c.FalsePos != 0 {
		t.Errorf("FPP on: %d false positives outside the seeded functions", c.FalsePos)
	}
	if c.Reports != 17 || c.Funcs != 17 {
		t.Errorf("FPP on: %d reports in %d functions, want 17 in the 17 seeded ones", c.Reports, c.Funcs)
	}
	if c.Pruned != 200 {
		t.Errorf("FPP on: %d pruned paths, want 200", c.Pruned)
	}
	if c.FalsePosOff != 83 {
		t.Errorf("FPP off: %d false positives, want 83 (every infeasible site)", c.FalsePosOff)
	}
}

// TestE4SynonymCounts: assignment synonyms catch the use at the end of
// a copy chain, and mirror a successful NULL check from p to q in the
// paper's own "p = q = kmalloc" example.
func TestE4SynonymCounts(t *testing.T) {
	c := paper.E4(io.Discard)
	if want := (paper.E4Counts{ChainOn: 1, ChainOff: 0, NullOn: 0, NullOff: 1}); c != want {
		t.Errorf("reports with synonyms on and off: %+v, want %+v (the chain's bug found, the kmalloc false positive cleared)", c, want)
	}
}
