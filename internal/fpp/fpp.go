// Package fpp implements xgcc's simple path-sensitive analysis for
// pruning non-executable paths (§8 "False path pruning"): basic value
// tracking combined with a congruence-closure algorithm. The algorithm
// deliberately does not track values "too precisely" — most paths are
// executable and most data dependencies are simple.
package fpp

import "repro/internal/cc"

// Verdict is the result of evaluating a branch condition.
type Verdict int

// Branch evaluation outcomes.
const (
	Unknown Verdict = iota
	MustTrue
	MustFalse
)

// Env is the per-path fact environment: variable versions (§8 step 1:
// "For each assignment to a variable, we assign a new name to that
// variable so that different definitions of the variable are not
// confused") and the congruence-closure facts of facts.go, in one flat
// pointer-free list over the terms of a Table. Each path through the
// CFG carries its own copy: at every split the engine copies it into the
// successor's recycled frame (CopyFrom), whose fact array is reused.
type Env struct {
	tab          *Table
	facts        []fact
	contradicted bool
	// fp caches Fingerprint(); a new or rewritten fact other than a
	// version invalidates it.
	fp      uint32
	fpValid bool
}

// NewEnv returns an empty fact environment over a table of its own.
func NewEnv() *Env { return NewTable().NewEnv() }

// CopyFrom makes e a copy of src in e's own fact array, which grows only
// when src holds more facts than it ever has: copying into a warmed
// environment allocates nothing. src must not share e's array.
func (e *Env) CopyFrom(src *Env) {
	facts := append(e.facts[:0], src.facts...)
	*e = *src
	e.facts = facts
}

// Reset makes e an empty environment over tab, as tab.NewEnv would,
// keeping its fact array.
func (e *Env) Reset(tab *Table) { *e = Env{tab: tab, facts: e.facts[:0]} }

// Contradicted reports whether the path's facts became inconsistent
// (the path is infeasible).
func (e *Env) Contradicted() bool { return e.contradicted }

// term interns an expression over version-subscripted variables, or
// returns noTerm if the expression is too complex to name stably.
func (e *Env) term(x cc.Expr) term {
	tb := e.tab
	switch x := x.(type) {
	case *cc.Ident:
		return e.varTerm(tb.nameID(x.Name))
	case *cc.IntLit:
		return tb.constID(x.Value)
	case *cc.CharLit:
		if v, ok := cc.ConstEval(x); ok {
			return tb.constID(v)
		}
	case *cc.UnaryExpr:
		if x.Op == cc.TokMinus {
			if v, ok := e.constOf(x.X); ok {
				return tb.constID(-v)
			}
		}
		if inner := e.term(x.X); inner != noTerm {
			return tb.intern(node{kind: kindUnary, op: x.Op, a: int32(inner)})
		}
	case *cc.BinaryExpr:
		// Try full constant folding through known values first.
		if v, ok := e.eval(x); ok {
			return tb.constID(v)
		}
		if l, r := e.term(x.X), e.term(x.Y); l != noTerm && r != noTerm {
			return tb.intern(node{kind: kindBinary, op: x.Op, a: int32(l), b: int32(r)})
		}
	case *cc.FieldExpr:
		if inner := e.term(x.X); inner != noTerm {
			op := cc.TokDot
			if x.Arrow {
				op = cc.TokArrow
			}
			return tb.intern(node{kind: kindField, op: op, a: int32(inner), b: tb.nameID(x.Name)})
		}
	case *cc.IndexExpr:
		if b, i := e.term(x.X), e.term(x.Index); b != noTerm && i != noTerm {
			return tb.intern(node{kind: kindIndex, a: int32(b), b: int32(i)})
		}
	case *cc.CastExpr:
		return e.term(x.X)
	}
	return noTerm
}

// varTerm is the term of a variable at its current version.
func (e *Env) varTerm(name int32) term {
	return e.tab.intern(node{kind: kindVar, a: name, b: e.version(name)})
}

// constOf resolves an expression to a known constant through the
// equivalence classes.
func (e *Env) constOf(x cc.Expr) (int64, bool) {
	if v, ok := cc.ConstEval(x); ok {
		return v, true
	}
	return e.termConst(e.term(x))
}

// eval tries to evaluate an expression using tracked values (§8 step
// 2: "If we know that x is 10, then we will assign y the value 11"):
// cc's constant folder, reading each variable through its current
// class.
func (e *Env) eval(x cc.Expr) (int64, bool) {
	return cc.ConstEvalEnv(x, func(name string) (int64, bool) {
		return e.termConst(e.varTerm(e.tab.nameID(name)))
	})
}

// Assign records "lhs = rhs": the left side gets a fresh version, then
// an equality to the evaluated right side when it is trackable.
func (e *Env) Assign(lhs, rhs cc.Expr) {
	id, ok := lhs.(*cc.Ident)
	if !ok {
		// Assignments through *p, a[i], s->f: havoc nothing (the
		// object named is not version-tracked), stay conservative.
		return
	}
	// Evaluate the RHS in the *old* environment before renaming.
	var rhsTerm term
	if v, ok := e.eval(rhs); ok {
		rhsTerm = e.tab.constID(v)
	} else {
		rhsTerm = e.term(rhs)
	}
	name := e.tab.nameID(id.Name)
	e.bump(name)
	if rhsTerm != noTerm {
		// A fresh version has no facts yet, so this cannot contradict.
		e.union(e.varTerm(name), rhsTerm)
	}
}

// Havoc invalidates a variable: an increment or compound update, or an
// address passed to a call.
func (e *Env) Havoc(name string) { e.bump(e.tab.nameID(name)) }

// EvalCond evaluates a branch condition against the facts (§8 step 5).
func (e *Env) EvalCond(cond cc.Expr) Verdict {
	if v, ok := e.eval(cond); ok {
		if v != 0 {
			return MustTrue
		}
		return MustFalse
	}
	return e.evalRelation(cond)
}

// evalRelation consults equivalence classes and orderings for
// comparison conditions that constant evaluation couldn't settle.
func (e *Env) evalRelation(cond cc.Expr) Verdict {
	switch cond := cond.(type) {
	case *cc.UnaryExpr:
		if cond.Op == cc.TokNot {
			switch e.EvalCond(cond.X) {
			case MustTrue:
				return MustFalse
			case MustFalse:
				return MustTrue
			}
			return Unknown
		}
	case *cc.BinaryExpr:
		switch cond.Op {
		case cc.TokAndAnd:
			l, r := e.EvalCond(cond.X), e.EvalCond(cond.Y)
			if l == MustFalse || r == MustFalse {
				return MustFalse
			}
			if l == MustTrue && r == MustTrue {
				return MustTrue
			}
			return Unknown
		case cc.TokOrOr:
			l, r := e.EvalCond(cond.X), e.EvalCond(cond.Y)
			if l == MustTrue || r == MustTrue {
				return MustTrue
			}
			if l == MustFalse && r == MustFalse {
				return MustFalse
			}
			return Unknown
		case cc.TokEq, cc.TokNe, cc.TokLt, cc.TokGt, cc.TokLe, cc.TokGe:
			lt, rt := e.term(cond.X), e.term(cond.Y)
			if lt == noTerm || rt == noTerm {
				return Unknown
			}
			return e.relate(cond.Op, lt, rt)
		}
	case *cc.Ident, *cc.FieldExpr, *cc.IndexExpr:
		// Bare truth test: x is true iff x != 0.
		t := e.term(cond)
		if t == noTerm {
			return Unknown
		}
		return e.relate(cc.TokNe, t, e.tab.constID(0))
	}
	return Unknown
}

// AssumeCond asserts that cond evaluated to the given truth value on
// this path (§8 step 1: "If we see the statement (x < y), we record
// that x < y holds along the true branch and x >= y holds along the
// false branch"). Contradictions mark the environment infeasible.
func (e *Env) AssumeCond(cond cc.Expr, truth bool) {
	switch cond := cond.(type) {
	case *cc.UnaryExpr:
		if cond.Op == cc.TokNot {
			e.AssumeCond(cond.X, !truth)
			return
		}
	case *cc.BinaryExpr:
		switch cond.Op {
		case cc.TokAndAnd:
			if truth {
				e.AssumeCond(cond.X, true)
				e.AssumeCond(cond.Y, true)
			}
			// !(a && b) is a disjunction; nothing definite.
			return
		case cc.TokOrOr:
			if !truth {
				e.AssumeCond(cond.X, false)
				e.AssumeCond(cond.Y, false)
			}
			return
		case cc.TokEq, cc.TokNe, cc.TokLt, cc.TokGt, cc.TokLe, cc.TokGe:
			op := cond.Op
			if !truth {
				op = negateRel(op)
			}
			e.assume(op, e.term(cond.X), e.term(cond.Y))
			return
		case cc.TokPlus, cc.TokMinus, cc.TokStar, cc.TokSlash, cc.TokPercent,
			cc.TokAmp, cc.TokPipe, cc.TokCaret, cc.TokShl, cc.TokShr:
			// Arithmetic condition: truth says != 0 (weak).
			e.assumeTruthy(cond, truth)
			return
		}
	case *cc.AssignExpr:
		// if ((x = f())) — record the assignment, then the truth of x.
		e.Assign(cond.LHS, cond.RHS)
		e.assumeTruthy(cond.LHS, truth)
		return
	}
	e.assumeTruthy(cond, truth)
}

// assumeTruthy records expr != 0 (truth) or expr == 0 (!truth).
func (e *Env) assumeTruthy(x cc.Expr, truth bool) {
	op := cc.TokNe
	if !truth {
		op = cc.TokEq
	}
	e.assume(op, e.term(x), e.tab.constID(0))
}

// assume asserts op(l, r) when both sides are nameable; a
// contradiction marks the environment infeasible.
func (e *Env) assume(op cc.TokKind, l, r term) {
	if l == noTerm || r == noTerm {
		return
	}
	if !e.assert(op, l, r) {
		e.contradicted = true
	}
}

func negateRel(op cc.TokKind) cc.TokKind {
	switch op {
	case cc.TokEq:
		return cc.TokNe
	case cc.TokNe:
		return cc.TokEq
	case cc.TokLt:
		return cc.TokGe
	case cc.TokGe:
		return cc.TokLt
	case cc.TokGt:
		return cc.TokLe
	case cc.TokLe:
		return cc.TokGt
	}
	return op
}

// AssumeCase asserts tag == val (switch dispatch).
func (e *Env) AssumeCase(tag cc.Expr, val int64) {
	e.assume(cc.TokEq, e.term(tag), e.tab.constID(val))
}

// AssumeNotCase asserts tag != val (the default edge given the listed
// cases).
func (e *Env) AssumeNotCase(tag cc.Expr, val int64) {
	e.assume(cc.TokNe, e.term(tag), e.tab.constID(val))
}

// Fingerprint summarizes the facts the path can still use (canonical)
// for cache keying: within one Table, two environments get the same id
// exactly when they hold the same such facts; 0 means none. The result
// is cached until the next mutation.
func (e *Env) Fingerprint() uint32 {
	if !e.fpValid {
		tb := e.tab
		tb.sorted = e.canonical(tb.sorted[:0])
		e.fp = tb.fingerprint(tb.sorted)
		e.fpValid = true
	}
	return e.fp
}
