package core

// Retirement (DESIGN.md §12). A retiring engine evicts a call-graph
// unit's funcInfos — summaries and fpSeen sets — when the unit's
// last root has finished. No call edge crosses a unit boundary and
// summaries flow only along call edges, so no later traversal can read
// them: output is that of an engine nobody called SetRetire on. Their
// memory is zeroed into the engine's pool (funcPool), and the functions
// the engine enters later fill it. When no funcInfo is
// left, the engine's FPP table is emptied too: no fpSeen set holds its
// ids any more, and the next unit starts on the ids a fresh engine would
// hand out. Nothing comes back; inspection runs an engine that never
// retires (mc's Analyzer.Supergraph).

import (
	"repro/internal/pattern"
	"repro/internal/prog"
)

// SetRetire makes the engine retire: it counts the roots it has run per
// unit, in whatever order they arrive (each at most once), and evicts
// the unit when all have, so a unit with a root withheld never retires.
// onRetire (optional) is then called with the unit on the engine's
// goroutine; mc counts checker passes with it to release ASTs. Must be
// called before the engine runs.
func (en *Engine) SetRetire(onRetire func(*prog.Unit)) {
	en.rootsRun = make([]int32, len(en.Prog.Units()))
	en.onRetire = onRetire
}

// retireAfter counts one root that has been run and retires its unit
// with the last. A failed or cancelled engine stops retiring: its state is about
// to be discarded wholesale, and the panic may have left this root's
// unit half-traversed.
func (en *Engine) retireAfter(root *prog.Function) {
	if en.rootsRun == nil {
		return
	}
	u := root.Unit
	if en.rootsRun[u.Index]++; int(en.rootsRun[u.Index]) != len(u.Roots) || en.Failure != nil || en.cancelled {
		return
	}
	for _, fn := range u.Funcs {
		if fi := en.funcs[fn.Index]; fi != nil {
			en.funcs[fn.Index] = nil
			en.pool.put(fi)
			en.liveFuncs--
			en.Evictions++
		}
	}
	if en.liveFuncs == 0 {
		// No edge is left to read an object's representative. Roots of
		// different units interleave, so a skipped root can be the one
		// that empties liveFuncs: this runs on every retirement, and
		// costs nothing when the table and representatives are empty.
		en.terms.Reset()
		clear(en.intern.reps)
		en.intern.reps = en.intern.reps[:0]
	}
	// The DFS is between roots, so everything in its own buffers is
	// dead — and would pin the evicted blocks, their instances and the
	// ASTs about to be released until a later root overwrote it. A
	// skipped root wrote nothing there: the buffers are cleared once per
	// run of traversed roots.
	if en.dfsDirty {
		en.dfsDirty = false
		clear(en.backtrace[:cap(en.backtrace)])
		// Every frame is in the pool between roots. Its environment is
		// left as it is: its facts are integers and its table is the
		// engine's.
		for _, st := range en.frames {
			clear(st.sm.Active[:cap(st.sm.Active)])
			clear(st.pending[:cap(st.pending)])
		}
		clear(en.snapshot[:cap(en.snapshot)])
		clear(en.outs[:cap(en.outs)])
		en.prior[0] = pattern.Bound{}
		en.act = actionCtx{buf: en.act.buf}
		en.ctx.Reset()
	}
	if en.onRetire != nil {
		en.onRetire(u)
	}
}
