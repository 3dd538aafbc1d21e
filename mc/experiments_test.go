package mc_test

import (
	"io"
	"testing"

	"repro/internal/paper"
)

// TestE11SuitePrecision is the headline end-to-end experiment: the
// full checker suite, run through one Analyzer over a seeded
// multi-file tree, must find every seeded bug with no false positives
// (see EXPERIMENTS.md E11).
func TestE11SuitePrecision(t *testing.T) {
	rows := paper.E11(io.Discard)
	if len(rows) != 5 {
		t.Fatalf("%d checkers scored, want the five of the suite", len(rows))
	}
	for _, r := range rows {
		if r.Reports == 0 || r.FalsePos != 0 || r.Missed != 0 {
			t.Errorf("%s: %d reports, %d false positives, %d seeded bugs missed", r.Checker, r.Reports, r.FalsePos, r.Missed)
		}
	}
}
