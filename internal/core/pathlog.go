package core

// Witness-path recording for the second-tier feasibility pass
// (internal/feas, DESIGN.md §13). Every path records the events that
// shaped its fact environment — branch assumptions, switch dispatch,
// simple assignments, havocs — in traversal order. The events mirror
// exactly the six env-mutation sites of the §8 pruner, so replaying
// them through a fresh fpp.Env reconstructs the engine's environment at
// the report point.
//
// The log is a stack the engine owns (DESIGN.md §5), like the backtrace:
// a path state holds its part as events[logBase:logTop], a split copies
// the two indices, and a followed callee's part starts at its caller's
// top. Siblings run one after another and a state never reads above its
// own top, so a later sibling overwriting an earlier one's events cannot
// be observed. Recording an event allocates nothing once the stack has
// grown to the deepest path's length.
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

// logEvent pushes ev onto st's part of the engine's event stack.
func (en *Engine) logEvent(st *pathState, ev pathEvent) {
	en.events = append(en.events[:st.logTop], ev)
	st.logTop++
}

// renderPath materializes events oldest-first as serializable steps,
// rendering expressions to source text the feasibility pass re-parses
// (cc.ParseExprString round-trips cc.ExprString for the subset).
func renderPath(events []pathEvent) []report.PathStep {
	if len(events) == 0 {
		return nil
	}
	out := make([]report.PathStep, len(events))
	for i, ev := range events {
		out[i] = report.PathStep{Kind: ev.kind, Pos: ev.pos, Taken: ev.taken, Val: ev.val}
		if ev.expr != nil {
			out[i].Text = cc.ExprString(ev.expr)
		}
		if ev.rhs != nil {
			out[i].RHS = cc.ExprString(ev.rhs)
		}
	}
	return out
}
