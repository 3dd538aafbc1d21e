// Package feas is the second-tier feasibility pass (DESIGN.md §13): a
// bounded post-pass that replays each report's recorded witness path
// (report.PathStep) through a fresh fpp environment, slices it to the
// statements feeding the path's branch conditions, and layers an
// interval domain over the union-find's versioned terms to issue a
// verdict: confirmed (the sliced constraints are satisfiable in the
// model), infeasible (they contradict), or unknown (something on the
// path was outside the model, or the budget ran out).
//
// Verdicts only ever annotate reports — they never add or remove one —
// and evaluation is a pure function of the report's content, so the
// pass is one loop over the reports (Annotate) and its answer does not
// depend on when or where it runs.
package feas

import (
	"fmt"

	"repro/internal/report"
)

// DefaultMaxSteps bounds the number of path events replayed per
// verdict when the caller does not say otherwise.
const DefaultMaxSteps = 4096

// Outcome is one verdict with its explanation and effort counters.
type Outcome struct {
	Verdict string `json:"verdict"`
	Why     string `json:"why"`
	// Steps is the number of recorded path events considered.
	Steps int `json:"steps"`
	// Sliced is how many of them the slicer weakened to havocs for
	// not feeding any branch condition.
	Sliced int `json:"sliced"`
}

// Stats counts the verdicts of one or more Annotate passes.
type Stats struct {
	Done       int64 `json:"done"`
	Confirmed  int64 `json:"confirmed"`
	Infeasible int64 `json:"infeasible"`
	Unknown    int64 `json:"unknown"`
}

// Annotate issues a verdict for every report, in order, writes it into
// the report's Verdict and VerdictWhy, and counts the verdicts.
// maxSteps is Evaluate's.
func Annotate(reports []*report.Report, maxSteps int) Stats {
	var st Stats
	for _, r := range reports {
		o := Evaluate(r, maxSteps)
		r.Verdict, r.VerdictWhy = o.Verdict, o.Why
		st.Done++
		switch o.Verdict {
		case report.VerdictConfirmed:
			st.Confirmed++
		case report.VerdictInfeasible:
			st.Infeasible++
		default:
			st.Unknown++
		}
	}
	return st
}

// Evaluate issues a verdict for one report, replaying at most maxSteps
// recorded path events (0 means DefaultMaxSteps); a longer path gets
// VerdictUnknown. It never mutates the report. An infeasible first
// witness on a MultiPath report caps at VerdictUnknown: other,
// unrecorded paths reach the same violation, so killing it on this
// witness alone would be unsound.
func Evaluate(r *report.Report, maxSteps int) Outcome {
	if maxSteps <= 0 {
		maxSteps = DefaultMaxSteps
	}
	out := evalPath(r.Path, maxSteps)
	if out.Verdict == report.VerdictInfeasible && r.MultiPath {
		out.Verdict = report.VerdictUnknown
		out.Why = "recorded witness infeasible but violation reached along other paths: " + out.Why
	}
	return out
}

// evalPath runs slice + replay + interval check over a recorded path.
func evalPath(steps []report.PathStep, maxSteps int) Outcome {
	out := Outcome{Steps: len(steps)}
	if len(steps) > maxSteps {
		out.Verdict = report.VerdictUnknown
		out.Why = fmt.Sprintf("path exceeds verdict budget (%d steps > %d)", len(steps), maxSteps)
		return out
	}
	rp := replay(steps)
	out.Sliced = rp.sliced
	switch {
	case rp.contra:
		out.Verdict = report.VerdictInfeasible
		out.Why = rp.why
	case rp.modeled:
		out.Verdict = report.VerdictConfirmed
		out.Why = fmt.Sprintf("witness constraints satisfiable (%d constraints over %d steps, %d sliced)",
			rp.nconstraints, len(steps), rp.sliced)
	default:
		out.Verdict = report.VerdictUnknown
		out.Why = rp.why
	}
	return out
}
