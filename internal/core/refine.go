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
// with to, returning the rewritten tree, its *(&x) and &(*x) pairs
// cancelled, and whether anything changed.
func substExpr(e, from, to cc.Expr) (cc.Expr, bool) {
	out := cc.Rewrite(e, func(x cc.Expr) cc.Expr {
		if cc.EqualExpr(x, from) {
			return to
		}
		return nil
	})
	if out == e {
		return e, false
	}
	return simplifyDeep(out), true
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
// caller's scope (the inverse substitution).
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
				out = res
			}
		}
	}
	return simplifyDeep(out)
}

// simplifyDeep cancels *(&x) and &(*x) pairs bottom-up, copying only
// the nodes above a cancellation.
func simplifyDeep(e cc.Expr) cc.Expr {
	return cc.Rewrite(e, func(x cc.Expr) cc.Expr {
		u, ok := x.(*cc.UnaryExpr)
		if !ok || u.Postfix {
			return nil
		}
		inner := simplifyDeep(u.X)
		if in, ok := inner.(*cc.UnaryExpr); ok && !in.Postfix &&
			(u.Op == cc.TokStar && in.Op == cc.TokAmp || u.Op == cc.TokAmp && in.Op == cc.TokStar) {
			return in.X
		}
		if inner == u.X {
			return u
		}
		return &cc.UnaryExpr{P: u.P, Op: u.Op, X: inner}
	})
}

// mentions reports whether some identifier in e passes the test: the
// one walk behind every "does this object mention a name in this set"
// question (scope at creation, refine and restore, end of path, suffix
// omission).
func mentions(e cc.Expr, test func(*cc.Ident) bool) bool {
	found := false
	cc.WalkExpr(e, func(sub cc.Expr) bool {
		if id, ok := sub.(*cc.Ident); ok && test(id) {
			found = true
		}
		return !found
	})
	return found
}

// mentionsLocals reports whether e mentions a local of fn: an object
// that does not is a global, a file-scope static or extern (§6.1).
func mentionsLocals(e cc.Expr, fn *prog.Function) bool {
	if fn == nil || e == nil {
		return false
	}
	return mentions(e, func(id *cc.Ident) bool { return fn.Graph.Locals[id.Name] })
}
