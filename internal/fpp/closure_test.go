package fpp

import "testing"

// pathStep is one environment update along a path: a branch taken or
// not, an assignment, a havoc, or a switch case.
type pathStep struct {
	kind  string // "branch", "assign", "havoc", "case"
	x, y  string
	taken bool
	val   int64
}

func br(cond string, taken bool) pathStep { return pathStep{kind: "branch", x: cond, taken: taken} }
func asg(lhs, rhs string) pathStep        { return pathStep{kind: "assign", x: lhs, y: rhs} }
func hv(name string) pathStep             { return pathStep{kind: "havoc", x: name} }
func cs(tag string, val int64) pathStep   { return pathStep{kind: "case", x: tag, val: val} }

// replayPath applies the steps to a fresh Env and to the reference
// environment, and reports whether each ends contradicted.
func replayPath(t *testing.T, steps []pathStep) (got, ref bool) {
	t.Helper()
	e, r := NewEnv(), newRefEnv()
	for _, s := range steps {
		switch s.kind {
		case "branch":
			c := expr(t, s.x)
			e.AssumeCond(c, s.taken)
			r.AssumeCond(c, s.taken)
		case "assign":
			l, rhs := expr(t, s.x), expr(t, s.y)
			e.Assign(l, rhs)
			r.Assign(l, rhs)
		case "havoc":
			e.Havoc(s.x)
			r.Havoc(s.x)
		case "case":
			tag := expr(t, s.x)
			e.AssumeCase(tag, s.val)
			r.AssumeCase(tag, s.val)
		}
	}
	return e.Contradicted(), r.Contradicted()
}

// TestClosureBounds holds the §8 closure to the path shapes it must
// contradict and the ones it must keep. Before the closure compared a
// class's constant with orderings into the class, and before a <= pair
// became an equality, only the truth and switch-case shapes were
// contradicted; a second, interval-based pass re-derived the other five
// after the run.
func TestClosureBounds(t *testing.T) {
	cases := []struct {
		name   string
		steps  []pathStep
		contra bool
	}{
		{"interval", []pathStep{br("n > 5", true), br("n < 3", true)}, true},
		{"incoming-edge", []pathStep{br("n >= 10", true), br("n == 5", true)}, true},
		{"assign-propagated", []pathStep{asg("x", "n"), br("x > 5", true), br("n < 3", true)}, true},
		{"point-exclusion", []pathStep{br("n >= 5", true), br("n <= 5", true), br("n != 5", true)}, true},
		{"negated-branch", []pathStep{br("n <= 5", false), br("n < 3", true)}, true},
		{"truth", []pathStep{br("flag", true), br("flag", false)}, true},
		{"switch-case", []pathStep{cs("c", 3), br("c > 5", true)}, true},

		{"guarded-true-positive", []pathStep{br("n > 5", true), br("n > 2", true)}, false},
		{"havoc-between-branches", []pathStep{br("n > 5", true), hv("n"), br("n < 3", true)}, false},
		{"conjunction", []pathStep{br("a > 1 && a < 9", true)}, false},
		// Integer tightening is outside the closure's model: n >= 5 and
		// n < 6 leave n only 5 over the integers, but the closure never
		// reasons about the gap between two constants (DESIGN.md §7).
		{"integer-tightening-kept", []pathStep{br("n >= 5", true), br("n < 6", true), br("n != 5", true)}, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got, ref := replayPath(t, c.steps)
			if got != c.contra {
				t.Errorf("contradicted = %v, want %v", got, c.contra)
			}
			if ref != got {
				t.Errorf("reference contradicted = %v, Env %v", ref, got)
			}
		})
	}
}

// A contradicted arm is pruned at AssumeCond; EvalCond does not have to
// settle the branch first. After n > 5, the condition n < 3 is still
// Unknown, so the engine splits, and the taken arm contradicts.
func TestBoundsPruneAtAssume(t *testing.T) {
	e := NewEnv()
	e.AssumeCond(expr(t, "n > 5"), true)
	if got := e.EvalCond(expr(t, "n < 3")); got != Unknown {
		t.Fatalf("EvalCond(n < 3) after n > 5 = %v, want Unknown", got)
	}
	taken, notTaken := NewEnv(), NewEnv()
	taken.CopyFrom(e)
	notTaken.CopyFrom(e)
	taken.AssumeCond(expr(t, "n < 3"), true)
	notTaken.AssumeCond(expr(t, "n < 3"), false)
	if !taken.Contradicted() || notTaken.Contradicted() {
		t.Errorf("n > 5 then n < 3: taken arm contradicted %v, other arm %v; want true, false",
			taken.Contradicted(), notTaken.Contradicted())
	}
}
