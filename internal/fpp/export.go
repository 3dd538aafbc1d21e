package fpp

// Exported hooks for the second-tier feasibility pass (internal/feas,
// DESIGN.md §13). The pass replays a report's recorded witness path
// through a fresh Env — reusing the condition model and the closure —
// and layers an interval domain over the versioned terms. It keys its
// intervals by rendered terms, which also reach users in its "why"
// texts, so these accessors speak strings; the engine never does.

import "repro/internal/cc"

// TermOf renders an expression with version-subscripted variable
// names ("x#2", "$5", "(x#0+y#1)"), or "" when the expression is too
// complex to name stably. Constants fold to "$<value>" terms.
func (e *Env) TermOf(x cc.Expr) string {
	if t := e.term(x); t != noTerm {
		return e.tab.str(t)
	}
	return ""
}

// ConstTerm renders a constant as its term ("$5").
func ConstTerm(v int64) string { return constTerm(v) }

// CanonTerm resolves a term to its current equivalence-class
// representative. Classes only ever grow along a path (assignments
// version-rename instead of mutating), so after a full replay the
// canonical form reflects every equality the path asserted. A term the
// environment has never seen represents itself.
func (e *Env) CanonTerm(t string) string {
	if id, ok := e.tab.lookup(t); ok {
		return e.tab.str(e.find(id))
	}
	return t
}

// TermConst reports the constant value a term's class is pinned to,
// if any.
func (e *Env) TermConst(t string) (int64, bool) {
	id, _ := e.tab.lookup(t)
	return e.termConst(id)
}
