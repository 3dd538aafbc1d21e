package core

import (
	"repro/internal/fpp"
	"repro/internal/pattern"
	"repro/internal/prog"
	"repro/internal/report"
)

// This file holds the per-path state of the DFS: a frame from the
// engine's pool, copied at a split (§5.1).

// pendingBranch is a matched path-specific transition awaiting branch
// resolution (§3.2).
type pendingBranch struct {
	r *rule
	// v and obj name the triggering instance; v 0 for creation.
	v, obj int32
	// bindings is a creation's own copy: the match's result is gone at
	// the next match (pattern.Ctx) and the branch resolves at block end.
	bindings pattern.Bindings
	neg      bool // matched subexpression appears under negation
}

// pathState is the per-path analysis state: the extension state, the
// FPP fact environment, and the traversal bookkeeping. Each successor of
// a split gets its own copy so "mutations revert when the extension
// backtracks" (§5.1), made in a frame from the engine's pool (split).
type pathState struct {
	sm SM
	// env is the frame's own: a split copies the facts into its array.
	env fpp.Env
	fn  *prog.Function
	// btBase and btTop delimit this state's frame of the engine's
	// backtrace stack: the blocks traversed so far in fn on this path.
	// Its call stack is the first callDepth+1 entries of the engine's.
	btBase, btTop int
	callDepth     int
	killPath      bool
	pathClass     report.Class
	pending       []pendingBranch
	// steps counts program points visited along this path, bulk-added
	// at block entry, for the per-path budget (governance layer).
	steps int64
}

// frame takes a path state from the engine's pool, or makes one. Its
// arrays keep their capacity; every field is the caller's to set.
func (en *Engine) frame() *pathState {
	n := len(en.frames)
	if n == 0 {
		return &pathState{}
	}
	st := en.frames[n-1]
	en.frames = en.frames[:n-1]
	return st
}

// release returns a state whose traversal has returned to the pool.
func (en *Engine) release(st *pathState) { en.frames = append(en.frames, st) }

// enter takes a frame for a new traversal of fn — a root (caller nil) or
// a followed callee: nothing tracked, nothing pending, no facts, and its
// parts of the engine's stacks beginning at the caller's tops.
func (en *Engine) enter(caller *pathState, fn *prog.Function, g int32) *pathState {
	st := en.frame()
	*st = pathState{sm: SM{g: g, Active: st.sm.Active[:0]}, env: st.env, fn: fn, pending: st.pending[:0]}
	st.env.Reset(&en.terms)
	if caller != nil {
		st.btBase, st.btTop = caller.btTop, caller.btTop
		st.callDepth = caller.callDepth + 1
		st.pathClass = caller.pathClass
	}
	return st
}

// split takes a frame that continues st's path: every field copied, the
// facts and pending transitions into the frame's own arrays. Its
// instance array is left empty for the caller to fill: a successor of a
// branch clones st's instances into it (Engine.cloneActive), a call-return
// partition restores its own.
func (en *Engine) split(st *pathState) *pathState {
	ns := en.frame()
	env, active, pending := ns.env, ns.sm.Active[:0], ns.pending[:0]
	*ns = *st
	ns.env = env
	ns.env.CopyFrom(&st.env)
	ns.sm.Active = active
	ns.pending = append(pending, st.pending...)
	return ns
}

// setPathClass keeps the highest-priority annotation seen on the
// path; any annotation beats none.
func (st *pathState) setPathClass(c report.Class) {
	if st.pathClass == report.ClassNone || c.Rank() < st.pathClass.Rank() {
		st.pathClass = c
	}
}
