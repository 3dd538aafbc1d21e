package feas

import (
	"testing"

	"repro/internal/report"
)

func br(text string, taken bool) report.PathStep {
	return report.PathStep{Kind: "branch", Text: text, Taken: taken}
}
func asg(lhs, rhs string) report.PathStep {
	return report.PathStep{Kind: "assign", Text: lhs, RHS: rhs}
}
func hv(name string) report.PathStep {
	return report.PathStep{Kind: "havoc", Text: name}
}
func cs(tag string, val int64) report.PathStep {
	return report.PathStep{Kind: "case", Text: tag, Val: val}
}

func eval(t *testing.T, steps ...report.PathStep) Outcome {
	t.Helper()
	return Evaluate(&report.Report{Path: steps}, 0)
}

func TestStraightLineConfirmed(t *testing.T) {
	o := eval(t)
	if o.Verdict != report.VerdictConfirmed {
		t.Fatalf("empty path: got %s (%s), want confirmed", o.Verdict, o.Why)
	}
}

func TestIntervalContradictionKilled(t *testing.T) {
	// The tier-1 union-find records n>5 and n<3 as edges against two
	// different constant classes and never compares the constants.
	o := eval(t, br("n > 5", true), br("n < 3", true))
	if o.Verdict != report.VerdictInfeasible {
		t.Fatalf("n>5 && n<3: got %s (%s), want infeasible", o.Verdict, o.Why)
	}
}

func TestIncomingEdgeContradictionKilled(t *testing.T) {
	// n>=10 is stored as an edge incoming to n's class; the later
	// union with $5 never re-checks it.
	o := eval(t, br("n >= 10", true), br("n == 5", true))
	if o.Verdict != report.VerdictInfeasible {
		t.Fatalf("n>=10 && n==5: got %s (%s), want infeasible", o.Verdict, o.Why)
	}
}

func TestGuardedTruePositiveConfirmed(t *testing.T) {
	o := eval(t, br("n > 5", true), br("n > 2", true))
	if o.Verdict != report.VerdictConfirmed {
		t.Fatalf("n>5 && n>2: got %s (%s), want confirmed", o.Verdict, o.Why)
	}
}

func TestTruthContradictionKilled(t *testing.T) {
	o := eval(t, br("flag", true), br("flag", false))
	if o.Verdict != report.VerdictInfeasible {
		t.Fatalf("flag && !flag: got %s (%s), want infeasible", o.Verdict, o.Why)
	}
}

func TestHavocSeparatesVersions(t *testing.T) {
	// A havoc between the branches makes them talk about different
	// values: no contradiction.
	o := eval(t, br("n > 5", true), hv("n"), br("n < 3", true))
	if o.Verdict != report.VerdictConfirmed {
		t.Fatalf("n>5; havoc n; n<3: got %s (%s), want confirmed", o.Verdict, o.Why)
	}
}

func TestAssignPropagatesEquality(t *testing.T) {
	o := eval(t, asg("x", "n"), br("x > 5", true), br("n < 3", true))
	if o.Verdict != report.VerdictInfeasible {
		t.Fatalf("x=n; x>5; n<3: got %s (%s), want infeasible", o.Verdict, o.Why)
	}
}

func TestSlicingCountsIrrelevantAssigns(t *testing.T) {
	o := eval(t, asg("y", "g + 1"), br("n > 2", true))
	if o.Verdict != report.VerdictConfirmed {
		t.Fatalf("got %s (%s), want confirmed", o.Verdict, o.Why)
	}
	if o.Sliced != 1 {
		t.Fatalf("Sliced = %d, want 1", o.Sliced)
	}
}

func TestPointExclusionKilled(t *testing.T) {
	o := eval(t, br("n >= 5", true), br("n <= 5", true), br("n != 5", true))
	if o.Verdict != report.VerdictInfeasible {
		t.Fatalf("n>=5 && n<=5 && n!=5: got %s (%s), want infeasible", o.Verdict, o.Why)
	}
}

func TestSwitchCaseContradictionKilled(t *testing.T) {
	o := eval(t, cs("c", 3), br("c > 5", true))
	if o.Verdict != report.VerdictInfeasible {
		t.Fatalf("case 3; c>5: got %s (%s), want infeasible", o.Verdict, o.Why)
	}
}

func TestMultiPathCapsInfeasible(t *testing.T) {
	r := &report.Report{
		Path:      []report.PathStep{br("n > 5", true), br("n < 3", true)},
		MultiPath: true,
	}
	o := Evaluate(r, 0)
	if o.Verdict != report.VerdictUnknown {
		t.Fatalf("multi-path infeasible witness: got %s, want unknown", o.Verdict)
	}
}

func TestDisjunctionUnknown(t *testing.T) {
	o := eval(t, br("a || b", true))
	if o.Verdict != report.VerdictUnknown {
		t.Fatalf("a||b: got %s (%s), want unknown", o.Verdict, o.Why)
	}
}

func TestConjunctionConfirmed(t *testing.T) {
	o := eval(t, br("a > 1 && a < 9", true))
	if o.Verdict != report.VerdictConfirmed {
		t.Fatalf("a>1 && a<9 taken: got %s (%s), want confirmed", o.Verdict, o.Why)
	}
}

func TestParseFailureUnknown(t *testing.T) {
	o := eval(t, br("@@@ not c", true))
	if o.Verdict != report.VerdictUnknown {
		t.Fatalf("unparseable cond: got %s (%s), want unknown", o.Verdict, o.Why)
	}
}

func TestBudgetExhaustionUnknown(t *testing.T) {
	r := &report.Report{Path: []report.PathStep{br("n > 5", true), br("n < 3", true)}}
	o := Evaluate(r, 1)
	if o.Verdict != report.VerdictUnknown {
		t.Fatalf("over budget: got %s, want unknown", o.Verdict)
	}
}

func TestNegatedBranchDirection(t *testing.T) {
	// Taking the false edge of n<=5 means n>5; then n<3 contradicts.
	o := eval(t, br("n <= 5", false), br("n < 3", true))
	if o.Verdict != report.VerdictInfeasible {
		t.Fatalf("!(n<=5) && n<3: got %s (%s), want infeasible", o.Verdict, o.Why)
	}
}

func TestAnnotateCounts(t *testing.T) {
	reports := []*report.Report{
		{Msg: "fp", Path: []report.PathStep{br("n > 5", true), br("n < 3", true)}},
		{Msg: "tp", Path: []report.PathStep{br("n > 5", true), br("n > 2", true)}},
		{Msg: "unk", Path: []report.PathStep{br("a || b", true)}},
	}
	st := Annotate(reports, 0)
	want := map[string]string{
		"fp":  report.VerdictInfeasible,
		"tp":  report.VerdictConfirmed,
		"unk": report.VerdictUnknown,
	}
	for _, r := range reports {
		if r.Verdict != want[r.Msg] || r.VerdictWhy == "" {
			t.Errorf("%s: verdict %s (%s), want %s", r.Msg, r.Verdict, r.VerdictWhy, want[r.Msg])
		}
	}
	if st != (Stats{Done: 3, Confirmed: 1, Infeasible: 1, Unknown: 1}) {
		t.Errorf("stats = %+v, want 1/1/1 over 3", st)
	}
}
