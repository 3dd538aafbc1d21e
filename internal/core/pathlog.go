package core

// Witness-path recording for the second-tier feasibility pass
// (internal/feas, DESIGN.md §13). Every path carries an immutable
// cons list of the events that shaped its fact environment — branch
// assumptions, switch dispatch, simple assignments, havocs — in
// traversal order. The list mirrors exactly the six env-mutation
// sites of the §8 pruner, so replaying it through a fresh fpp.Env
// reconstructs the engine's environment at the report point; clones
// share tails (the traceList trick), so recording costs one small
// allocation per event regardless of path-split fan-out.
//
// Recording is unconditional (no option gate): the Path field must be
// byte-identical whether or not the verdict pass runs, at every -j,
// and through the cache, so it cannot depend on any post-pass switch.

import (
	"repro/internal/cc"
	"repro/internal/report"
)

// Path event kinds; values match report.PathStep.Kind.
const (
	evBranch  = "branch"
	evCase    = "case"
	evNotCase = "notcase"
	evAssign  = "assign"
	evHavoc   = "havoc"
)

// pathEvent is one recorded step. Expressions stay as AST pointers
// until a report renders them (emitReport runs mid-traversal, before
// any AST retirement).
type pathEvent struct {
	kind  string
	pos   cc.Pos
	expr  cc.Expr // branch cond, switch tag, assign LHS, or havocked ident
	rhs   cc.Expr // assign RHS
	taken bool
	val   int64 // switch case constant
}

// pathLog is an immutable persistent list of path events, newest
// first; push never mutates existing cells.
type pathLog struct {
	prev *pathLog
	ev   pathEvent
	n    int
}

// push returns a new list with ev appended. Works on a nil receiver.
func (l *pathLog) push(ev pathEvent) *pathLog {
	n := 1
	if l != nil {
		n = l.n + 1
	}
	return &pathLog{prev: l, ev: ev, n: n}
}

// render materializes the log oldest-first as serializable steps,
// rendering expressions to source text the feasibility pass re-parses
// (cc.ParseExprString round-trips cc.ExprString for the subset).
func (l *pathLog) render() []report.PathStep {
	if l == nil {
		return nil
	}
	out := make([]report.PathStep, l.n)
	for c := l; c != nil; c = c.prev {
		ev := c.ev
		step := report.PathStep{Kind: ev.kind, Pos: ev.pos, Taken: ev.taken, Val: ev.val}
		if ev.expr != nil {
			step.Text = cc.ExprString(ev.expr)
		}
		if ev.rhs != nil {
			step.RHS = cc.ExprString(ev.rhs)
		}
		out[c.n-1] = step
	}
	return out
}
