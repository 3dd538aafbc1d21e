package fpp

import (
	"fmt"
	"testing"
)

func TestEvalArithmeticOperators(t *testing.T) {
	e := NewEnv()
	e.Assign(expr(t, "x"), expr(t, "12"))
	e.Assign(expr(t, "y"), expr(t, "5"))
	cases := []struct {
		src  string
		want Verdict
	}{
		{"x - y == 7", MustTrue},
		{"x * y == 60", MustTrue},
		{"x / y == 2", MustTrue},
		{"x % y == 2", MustTrue},
		{"(x & y) == 4", MustTrue},
		{"(x | y) == 13", MustTrue},
		{"(x ^ y) == 9", MustTrue},
		{"(x << 1) == 24", MustTrue},
		{"(x >> 2) == 3", MustTrue},
		{"-x == -12", MustTrue},
		{"~x == -13", MustTrue},
		{"+x == 12", MustTrue},
		{"!x", MustFalse},
		{"x && y", MustTrue},
		{"x || y", MustTrue},
		{"x / 0 == 1", Unknown}, // division by zero never folds
		{"x % 0 == 1", Unknown},
		{"(x << 99) == 0", Unknown},
		{"x + sizeof(int) == 16", MustTrue}, // cc's LP64 sizes
		{"x != '\\033'", MustTrue},
	}
	for _, c := range cases {
		if got := e.EvalCond(expr(t, c.src)); got != c.want {
			t.Errorf("%s: got %v, want %v", c.src, got, c.want)
		}
	}
}

func TestTermForms(t *testing.T) {
	e := NewEnv()
	// Terms for casts, fields, indexes, chars, unary.
	e.AssumeCond(expr(t, "(long)n == 4"), true)
	if got := e.EvalCond(expr(t, "(long)n == 4")); got != MustTrue {
		t.Errorf("cast term: %v", got)
	}
	e2 := NewEnv()
	e2.AssumeCond(expr(t, "buf[i] == 'x'"), true)
	if got := e2.EvalCond(expr(t, "buf[i] == 'x'")); got != MustTrue {
		t.Errorf("index+char term: %v", got)
	}
	e3 := NewEnv()
	e3.AssumeCond(expr(t, "a.b->c != 0"), true)
	if got := e3.EvalCond(expr(t, "a.b->c")); got != MustTrue {
		t.Errorf("field chain truthiness: %v", got)
	}
	// Untrackable terms (calls) stay Unknown without crashing.
	e4 := NewEnv()
	e4.AssumeCond(expr(t, "f(x) == 1"), true)
	if got := e4.EvalCond(expr(t, "f(x) == 1")); got != Unknown {
		t.Errorf("call term should be untracked: %v", got)
	}
}

func TestConstOfThroughClasses(t *testing.T) {
	e := NewEnv()
	e.AssumeCond(expr(t, "a == b"), true)
	e.AssumeCond(expr(t, "b == 9"), true)
	if v, ok := e.constOf(expr(t, "a")); !ok || v != 9 {
		t.Errorf("constOf(a) = %d, %v", v, ok)
	}
	if _, ok := e.constOf(expr(t, "zz")); ok {
		t.Error("constOf of unknown var should fail")
	}
	if v, ok := e.constOf(expr(t, "4 + 4")); !ok || v != 8 {
		t.Errorf("constOf(4+4) = %d, %v", v, ok)
	}
}

func TestEvalRelationMixedForms(t *testing.T) {
	e := NewEnv()
	e.AssumeCond(expr(t, "x <= y"), true)
	if got := e.EvalCond(expr(t, "x <= y")); got != MustTrue {
		t.Errorf("<= reflexive: %v", got)
	}
	if got := e.EvalCond(expr(t, "x > y")); got != MustFalse {
		t.Errorf("> vs <=: %v", got)
	}
	// ge via stored le.
	if got := e.EvalCond(expr(t, "y >= x")); got != MustTrue {
		t.Errorf(">= mirror: %v", got)
	}
	// Unknown pair.
	if got := e.EvalCond(expr(t, "p < q")); got != Unknown {
		t.Errorf("unconstrained: %v", got)
	}
	// && / || combinations with one known side.
	e2 := NewEnv()
	e2.Assign(expr(t, "a"), expr(t, "0"))
	if got := e2.EvalCond(expr(t, "a && whatever")); got != MustFalse {
		t.Errorf("0 && x: %v", got)
	}
	if got := e2.EvalCond(expr(t, "a || whatever")); got != Unknown {
		t.Errorf("0 || unknown: %v", got)
	}
	e2.Assign(expr(t, "b"), expr(t, "1"))
	if got := e2.EvalCond(expr(t, "b || whatever")); got != MustTrue {
		t.Errorf("1 || x: %v", got)
	}
	if got := e2.EvalCond(expr(t, "b && whatever")); got != Unknown {
		t.Errorf("1 && unknown: %v", got)
	}
}

func TestAssumeCaseContradiction(t *testing.T) {
	e := NewEnv()
	e.Assign(expr(t, "x"), expr(t, "3"))
	e.AssumeCase(expr(t, "x"), 5)
	if !e.Contradicted() {
		t.Error("case 5 with x==3 should contradict")
	}
	e2 := NewEnv()
	e2.Assign(expr(t, "x"), expr(t, "3"))
	e2.AssumeNotCase(expr(t, "x"), 3)
	if !e2.Contradicted() {
		t.Error("default edge excluding x's value should contradict")
	}
	// Untrackable tags are tolerated.
	e3 := NewEnv()
	e3.AssumeCase(expr(t, "f(x)"), 1)
	e3.AssumeNotCase(expr(t, "f(x)"), 2)
	if e3.Contradicted() {
		t.Error("call tags should be ignored, not contradict")
	}
}

func TestAssumeCompoundConditionFalseBranches(t *testing.T) {
	// !(a && b) asserts nothing definite; !(a || b) asserts both
	// negations; these must not corrupt the env.
	e := NewEnv()
	e.AssumeCond(expr(t, "a == 1 && b == 2"), false)
	if e.Contradicted() {
		t.Error("negated conjunction should not contradict")
	}
	if got := e.EvalCond(expr(t, "a == 1")); got != Unknown {
		t.Errorf("a==1 after !(a&&b): %v", got)
	}
	e2 := NewEnv()
	e2.AssumeCond(expr(t, "a == 1 || a == 2"), true)
	if got := e2.EvalCond(expr(t, "a == 1")); got != Unknown {
		t.Errorf("a==1 after (a==1||a==2): %v", got)
	}
}

func TestArithmeticConditionTruthiness(t *testing.T) {
	e := NewEnv()
	e.AssumeCond(expr(t, "x + y"), true)
	if got := e.EvalCond(expr(t, "x + y != 0")); got != MustTrue {
		t.Errorf("arith truthy: %v", got)
	}
	e2 := NewEnv()
	e2.AssumeCond(expr(t, "x & mask"), false)
	if got := e2.EvalCond(expr(t, "(x & mask) == 0")); got != MustTrue {
		t.Errorf("arith falsy: %v", got)
	}
}

func TestVerdictStringsViaFormat(t *testing.T) {
	// Verdicts print as integers via %v (no Stringer) — just ensure
	// the constants are distinct.
	if fmt.Sprint(Unknown) == fmt.Sprint(MustTrue) || fmt.Sprint(MustTrue) == fmt.Sprint(MustFalse) {
		t.Error("verdict constants collide")
	}
}

func TestTernaryEvaluation(t *testing.T) {
	e := NewEnv()
	e.Assign(expr(t, "c"), expr(t, "1"))
	if got := e.EvalCond(expr(t, "(c ? 5 : 7) == 5")); got != MustTrue {
		t.Errorf("ternary with known cond: %v", got)
	}
	e2 := NewEnv()
	if got := e2.EvalCond(expr(t, "(c ? 5 : 7) == 5")); got != Unknown {
		t.Errorf("ternary with unknown cond: %v", got)
	}
}
