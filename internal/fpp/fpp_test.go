package fpp

import (
	"testing"
	"testing/quick"

	"repro/internal/cc"
)

func expr(t *testing.T, src string) cc.Expr {
	t.Helper()
	e, err := cc.ParseExprString(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	return e
}

func TestConstantTracking(t *testing.T) {
	e := NewEnv()
	e.Assign(expr(t, "x"), expr(t, "10"))
	if got := e.EvalCond(expr(t, "x == 10")); got != MustTrue {
		t.Errorf("x==10: %v", got)
	}
	if got := e.EvalCond(expr(t, "x < 5")); got != MustFalse {
		t.Errorf("x<5: %v", got)
	}
	// y = x + 1 evaluates through known x (§8 step 2).
	e.Assign(expr(t, "y"), expr(t, "x + 1"))
	if got := e.EvalCond(expr(t, "y == 11")); got != MustTrue {
		t.Errorf("y==11: %v", got)
	}
}

func TestRenamingOnAssignment(t *testing.T) {
	e := NewEnv()
	e.Assign(expr(t, "x"), expr(t, "1"))
	e.Assign(expr(t, "x"), expr(t, "2"))
	if got := e.EvalCond(expr(t, "x == 2")); got != MustTrue {
		t.Errorf("x==2 after reassign: %v", got)
	}
	if got := e.EvalCond(expr(t, "x == 1")); got != MustFalse {
		t.Errorf("x==1 after reassign: %v", got)
	}
}

func TestFig2Contradiction(t *testing.T) {
	// The paper's Figure 2: if(x) taken true, then if(!x) must be
	// false; taken false, then if(!x) must be true.
	e := NewEnv()
	e.AssumeCond(expr(t, "x"), true)
	if got := e.EvalCond(expr(t, "!x")); got != MustFalse {
		t.Errorf("on true path, !x should be MustFalse, got %v", got)
	}
	e2 := NewEnv()
	e2.AssumeCond(expr(t, "x"), false)
	if got := e2.EvalCond(expr(t, "!x")); got != MustTrue {
		t.Errorf("on false path, !x should be MustTrue, got %v", got)
	}
}

func TestEqualityPropagation(t *testing.T) {
	// y = x; x == 3 assumed; then y == 3 known.
	e := NewEnv()
	e.Assign(expr(t, "y"), expr(t, "x"))
	e.AssumeCond(expr(t, "x == 3"), true)
	if got := e.EvalCond(expr(t, "y == 3")); got != MustTrue {
		t.Errorf("y==3: %v", got)
	}
}

func TestCongruenceTransitivity(t *testing.T) {
	e := NewEnv()
	e.AssumeCond(expr(t, "a == b"), true)
	e.AssumeCond(expr(t, "b == c"), true)
	if got := e.EvalCond(expr(t, "a == c")); got != MustTrue {
		t.Errorf("a==c: %v", got)
	}
	e.AssumeCond(expr(t, "c != d"), true)
	if got := e.EvalCond(expr(t, "a == d")); got != MustFalse {
		t.Errorf("a==d: %v", got)
	}
}

func TestOrderings(t *testing.T) {
	// x < y and class reasoning (§8 step 4).
	e := NewEnv()
	e.AssumeCond(expr(t, "x < y"), true)
	if got := e.EvalCond(expr(t, "x == y")); got != MustFalse {
		t.Errorf("x==y under x<y: %v", got)
	}
	if got := e.EvalCond(expr(t, "y > x")); got != MustTrue {
		t.Errorf("y>x under x<y: %v", got)
	}
	if got := e.EvalCond(expr(t, "x >= y")); got != MustFalse {
		t.Errorf("x>=y under x<y: %v", got)
	}
	// Transitivity: x < y, y < z => x < z.
	e.AssumeCond(expr(t, "y < z"), true)
	if got := e.EvalCond(expr(t, "x < z")); got != MustTrue {
		t.Errorf("x<z: %v", got)
	}
}

func TestOrderingWithEquivalence(t *testing.T) {
	// a == x, x < y, b == y: a < b must follow.
	e := NewEnv()
	e.AssumeCond(expr(t, "a == x"), true)
	e.AssumeCond(expr(t, "x < y"), true)
	e.AssumeCond(expr(t, "b == y"), true)
	if got := e.EvalCond(expr(t, "a < b")); got != MustTrue {
		t.Errorf("a<b: %v", got)
	}
}

func TestContradictionDetection(t *testing.T) {
	e := NewEnv()
	e.AssumeCond(expr(t, "x == 1"), true)
	e.AssumeCond(expr(t, "x == 2"), true)
	if !e.Contradicted() {
		t.Error("x==1 && x==2 should contradict")
	}

	e2 := NewEnv()
	e2.AssumeCond(expr(t, "x < y"), true)
	e2.AssumeCond(expr(t, "x == y"), true)
	if !e2.Contradicted() {
		t.Error("x<y && x==y should contradict")
	}
}

func TestFalseBranchNegation(t *testing.T) {
	// On the false branch of (x < y) we learn x >= y.
	e := NewEnv()
	e.AssumeCond(expr(t, "x < y"), false)
	if got := e.EvalCond(expr(t, "x >= y")); got != MustTrue {
		t.Errorf("x>=y on false branch of x<y: %v", got)
	}
	if got := e.EvalCond(expr(t, "x < y")); got != MustFalse {
		t.Errorf("x<y on its own false branch: %v", got)
	}
}

func TestShortCircuitAssumptions(t *testing.T) {
	// True branch of (a && b) gives both.
	e := NewEnv()
	e.AssumeCond(expr(t, "a == 1 && b == 2"), true)
	if e.EvalCond(expr(t, "a == 1")) != MustTrue || e.EvalCond(expr(t, "b == 2")) != MustTrue {
		t.Error("&& true branch should assert both conjuncts")
	}
	// False branch of (a || b) gives both negations.
	e2 := NewEnv()
	e2.AssumeCond(expr(t, "a == 1 || b == 2"), false)
	if e2.EvalCond(expr(t, "a == 1")) != MustFalse || e2.EvalCond(expr(t, "b == 2")) != MustFalse {
		t.Error("|| false branch should refute both disjuncts")
	}
}

func TestSwitchCaseFacts(t *testing.T) {
	e := NewEnv()
	e.AssumeCase(expr(t, "x"), 3)
	if got := e.EvalCond(expr(t, "x == 3")); got != MustTrue {
		t.Errorf("case 3: %v", got)
	}
	e2 := NewEnv()
	e2.AssumeNotCase(expr(t, "x"), 3)
	e2.AssumeNotCase(expr(t, "x"), 4)
	if got := e2.EvalCond(expr(t, "x == 3")); got != MustFalse {
		t.Errorf("default vs case 3: %v", got)
	}
}

func TestCloneIndependence(t *testing.T) {
	e := NewEnv()
	e.Assign(expr(t, "x"), expr(t, "1"))
	var c Env
	c.CopyFrom(e)
	c.Assign(expr(t, "x"), expr(t, "2"))
	if got := e.EvalCond(expr(t, "x == 1")); got != MustTrue {
		t.Errorf("original env damaged by copy mutation: %v", got)
	}
	if got := c.EvalCond(expr(t, "x == 2")); got != MustTrue {
		t.Errorf("copy: %v", got)
	}
	// Copying back over a longer environment leaves none of its facts.
	c.AssumeCond(expr(t, "y < z"), true)
	c.CopyFrom(e)
	if got := c.EvalCond(expr(t, "y < z")); got != Unknown {
		t.Errorf("a fact of the overwritten copy survived: %v", got)
	}
	if c.Fingerprint() != e.Fingerprint() {
		t.Error("a copy fingerprints differently from its source")
	}
	// Reset is an environment fresh from the table.
	c.Reset(e.tab)
	if got := c.EvalCond(expr(t, "x == 1")); got != Unknown || c.Fingerprint() != 0 || c.Contradicted() {
		t.Errorf("a reset environment still knows x == 1 (%v), fingerprint %d", got, c.Fingerprint())
	}
}

func TestAssignThroughPointerIsConservative(t *testing.T) {
	e := NewEnv()
	e.Assign(expr(t, "*p"), expr(t, "1"))
	if got := e.EvalCond(expr(t, "*p == 1")); got != Unknown {
		t.Errorf("deref assignment should not be tracked, got %v", got)
	}
}

func TestFieldTerms(t *testing.T) {
	e := NewEnv()
	e.AssumeCond(expr(t, "s->len == 4"), true)
	if got := e.EvalCond(expr(t, "s->len == 4")); got != MustTrue {
		t.Errorf("field fact: %v", got)
	}
	if got := e.EvalCond(expr(t, "s->len > 10")); got != MustFalse {
		t.Errorf("field const compare: %v", got)
	}
}

func TestAssignmentInCondition(t *testing.T) {
	e := NewEnv()
	e.AssumeCond(expr(t, "x = next()"), true)
	if got := e.EvalCond(expr(t, "x != 0")); got != MustTrue {
		t.Errorf("if((x = f())) true branch: %v", got)
	}
}

func TestFingerprintStability(t *testing.T) {
	// Fingerprint ids compare within one table.
	tab := NewTable()
	build := func() *Env {
		e := tab.NewEnv()
		e.Assign(expr(t, "x"), expr(t, "7"))
		e.AssumeCond(expr(t, "y < z"), true)
		return e
	}
	if build().Fingerprint() != build().Fingerprint() {
		t.Error("fingerprints differ for identical fact sets")
	}
	e := build()
	e.AssumeCond(expr(t, "w == 0"), true)
	if e.Fingerprint() == build().Fingerprint() {
		t.Error("fingerprint missed a new fact")
	}
}

// Property: AssumeCond(c, true) never makes EvalCond(c) return
// MustFalse without marking contradiction, for randomly generated
// small relational conditions.
func TestAssumeEvalConsistency(t *testing.T) {
	vars := []string{"a", "b", "c"}
	ops := []string{"==", "!=", "<", ">", "<=", ">="}
	f := func(vi, vj, oi uint8, truth bool) bool {
		v1 := vars[int(vi)%len(vars)]
		v2 := vars[int(vj)%len(vars)]
		op := ops[int(oi)%len(ops)]
		cond, err := cc.ParseExprString(v1 + " " + op + " " + v2)
		if err != nil {
			return false
		}
		e := NewEnv()
		e.AssumeCond(cond, truth)
		if e.Contradicted() {
			// e.g. a < a — a genuine contradiction, fine.
			return true
		}
		got := e.EvalCond(cond)
		if truth {
			return got != MustFalse
		}
		return got != MustTrue
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

// Property: facts are monotone under copy — a copied env gives the
// same verdicts as its source for conditions over existing variables.
func TestCloneVerdictEquality(t *testing.T) {
	conds := []string{"x == 1", "x < y", "y != 0", "x >= y"}
	e := NewEnv()
	e.Assign(expr(t, "x"), expr(t, "1"))
	e.AssumeCond(expr(t, "y > x"), true)
	var c Env
	c.CopyFrom(e)
	for _, s := range conds {
		if e.EvalCond(expr(t, s)) != c.EvalCond(expr(t, s)) {
			t.Errorf("verdict mismatch after copy for %q", s)
		}
	}
}
