package core

import (
	"repro/internal/cc"
	"repro/internal/prog"
)

// This file implements the refine/restore semantics of §6.1 and
// Table 2: retargeting extension state across a function-call
// boundary. The rules generalize to all levels of indirection by
// substituting the actual-argument expression (or, for &x actuals, the
// stripped operand) inside the tracked object expression:
//
//	actual xa,  formal xf, state on xa         -> state on xf
//	actual &xa, formal xf, state on xa         -> state on *xf
//	actual xa,  formal xf, state on xa.field   -> state on xf.field
//	actual xa,  formal xf, state on xa->field  -> state on xf->field
//	actual xa,  formal xf, state on *xa        -> state on *xf
//
// Global variables pass unchanged; file-scope statics pass but are
// inactivated while the analysis is in a different file; everything
// else local to the caller is saved and restored around the call.

// substExpr replaces every occurrence of from (structural equality)
// with to, returning the rewritten tree and whether anything changed.
func substExpr(e, from, to cc.Expr) (cc.Expr, bool) {
	if e == nil {
		return nil, false
	}
	if cc.EqualExpr(e, from) {
		return to, true
	}
	switch e := e.(type) {
	case *cc.UnaryExpr:
		x, ch := substExpr(e.X, from, to)
		if !ch {
			return e, false
		}
		return simplifyExpr(&cc.UnaryExpr{P: e.P, Op: e.Op, Postfix: e.Postfix, X: x}), true
	case *cc.BinaryExpr:
		x, ch1 := substExpr(e.X, from, to)
		y, ch2 := substExpr(e.Y, from, to)
		if !ch1 && !ch2 {
			return e, false
		}
		return &cc.BinaryExpr{P: e.P, Op: e.Op, X: x, Y: y}, true
	case *cc.IndexExpr:
		x, ch1 := substExpr(e.X, from, to)
		i, ch2 := substExpr(e.Index, from, to)
		if !ch1 && !ch2 {
			return e, false
		}
		return &cc.IndexExpr{P: e.P, X: x, Index: i}, true
	case *cc.FieldExpr:
		x, ch := substExpr(e.X, from, to)
		if !ch {
			return e, false
		}
		return &cc.FieldExpr{P: e.P, X: x, Name: e.Name, Arrow: e.Arrow}, true
	case *cc.CastExpr:
		x, ch := substExpr(e.X, from, to)
		if !ch {
			return e, false
		}
		return &cc.CastExpr{P: e.P, To: e.To, X: x}, true
	case *cc.CallExpr:
		changed := false
		fun, ch := substExpr(e.Fun, from, to)
		changed = changed || ch
		args := make([]cc.Expr, len(e.Args))
		for i, a := range e.Args {
			na, ch := substExpr(a, from, to)
			args[i] = na
			changed = changed || ch
		}
		if !changed {
			return e, false
		}
		return &cc.CallExpr{P: e.P, Fun: fun, Args: args}, true
	case *cc.AssignExpr:
		lhs, ch1 := substExpr(e.LHS, from, to)
		rhs, ch2 := substExpr(e.RHS, from, to)
		if !ch1 && !ch2 {
			return e, false
		}
		return &cc.AssignExpr{P: e.P, Op: e.Op, LHS: lhs, RHS: rhs}, true
	case *cc.CondExpr:
		c, ch1 := substExpr(e.Cond, from, to)
		th, ch2 := substExpr(e.Then, from, to)
		el, ch3 := substExpr(e.Else, from, to)
		if !ch1 && !ch2 && !ch3 {
			return e, false
		}
		return &cc.CondExpr{P: e.P, Cond: c, Then: th, Else: el}, true
	case *cc.CommaExpr:
		changed := false
		list := make([]cc.Expr, len(e.List))
		for i, x := range e.List {
			nx, ch := substExpr(x, from, to)
			list[i] = nx
			changed = changed || ch
		}
		if !changed {
			return e, false
		}
		return &cc.CommaExpr{P: e.P, List: list}, true
	}
	return e, false
}

// simplifyExpr cancels *(&x) and &(*x) pairs introduced by
// substitution.
func simplifyExpr(e cc.Expr) cc.Expr {
	u, ok := e.(*cc.UnaryExpr)
	if !ok || u.Postfix {
		return e
	}
	inner, ok := u.X.(*cc.UnaryExpr)
	if !ok || inner.Postfix {
		return e
	}
	if (u.Op == cc.TokStar && inner.Op == cc.TokAmp) ||
		(u.Op == cc.TokAmp && inner.Op == cc.TokStar) {
		return inner.X
	}
	return e
}

// refineObj maps a caller-scope object expression into the callee's
// scope. It returns the mapped expression and whether a mapping
// applied.
func refineObj(obj cc.Expr, maps []prog.ArgMap) (cc.Expr, bool) {
	for _, m := range maps {
		var to cc.Expr = m.Formal
		if m.Deref {
			to = &cc.UnaryExpr{Op: cc.TokStar, X: m.Formal}
		}
		if out, changed := substExpr(obj, m.Actual, to); changed {
			return out, true
		}
	}
	return obj, false
}

// restoreObj maps a callee-scope object expression back into the
// caller's scope (the inverse substitution). It reports whether the
// expression still mentions callee-local names afterwards (in which
// case the instance dies with the callee frame).
func restoreObj(obj cc.Expr, maps []prog.ArgMap) cc.Expr {
	out := obj
	for _, m := range maps {
		var from cc.Expr = m.Formal
		var to cc.Expr = m.Actual
		if m.Deref {
			from = &cc.UnaryExpr{Op: cc.TokStar, X: m.Formal}
			// state(*xf) restores to state(xa) for &xa actuals.
		}
		if res, changed := substExpr(out, from, to); changed {
			out = res
			continue
		}
		// A bare formal may appear under extra derefs/fields; replace
		// the formal identifier itself with &actual-free mapping:
		// formal -> actual (value correspondence).
		if res, changed := substExpr(out, m.Formal, m.Actual); changed && !m.Deref {
			out = res
		} else if m.Deref {
			// formal == &actual.
			addr := &cc.UnaryExpr{Op: cc.TokAmp, X: m.Actual}
			if res, changed := substExpr(out, m.Formal, addr); changed {
				out = simplifyDeep(res)
			}
		}
	}
	return simplifyDeep(out)
}

// simplifyDeep applies simplifyExpr bottom-up.
func simplifyDeep(e cc.Expr) cc.Expr {
	switch x := e.(type) {
	case *cc.UnaryExpr:
		inner := simplifyDeep(x.X)
		return simplifyExpr(&cc.UnaryExpr{P: x.P, Op: x.Op, Postfix: x.Postfix, X: inner})
	case *cc.FieldExpr:
		return &cc.FieldExpr{P: x.P, X: simplifyDeep(x.X), Name: x.Name, Arrow: x.Arrow}
	case *cc.IndexExpr:
		return &cc.IndexExpr{P: x.P, X: simplifyDeep(x.X), Index: simplifyDeep(x.Index)}
	}
	return e
}

// mentionsAny reports whether the expression mentions any name in the
// set.
func mentionsAny(e cc.Expr, names map[string]bool) bool {
	found := false
	cc.WalkExpr(e, func(sub cc.Expr) bool {
		if id, ok := sub.(*cc.Ident); ok && names[id.Name] {
			found = true
		}
		return !found
	})
	return found
}

// leftoverCallerLocals reports whether e still mentions caller locals
// after refine substitution — ignoring the site's substituted formal
// nodes themselves, matched by pointer identity so that a formal named
// "p" is told from a leftover caller local that shares the name.
func leftoverCallerLocals(e cc.Expr, callerLocals map[string]bool, maps []prog.ArgMap) bool {
	isFormal := func(id *cc.Ident) bool {
		for _, m := range maps {
			if m.Formal == id {
				return true
			}
		}
		return false
	}
	found := false
	cc.WalkExpr(e, func(sub cc.Expr) bool {
		if id, ok := sub.(*cc.Ident); ok && callerLocals[id.Name] && !isFormal(id) {
			found = true
		}
		return !found
	})
	return found
}

// classifyObj records the scope category of a tracked object in the
// given function: global (no local names), or local-mentioning.
func mentionsLocals(e cc.Expr, fn *prog.Function) bool {
	if fn == nil || e == nil {
		return false
	}
	return mentionsAny(e, fn.Graph.Locals)
}
