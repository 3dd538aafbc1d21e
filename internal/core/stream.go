package core

// Retirement (DESIGN.md §12). A retiring engine drops a call-graph
// unit's funcInfo blocks — summaries, FPP term tables, slabs — when the
// unit's last root has finished. No call edge crosses a unit boundary and
// summaries flow only along call edges, so no later traversal can read
// them: output is that of an engine nobody called SetRetire on. Nothing
// comes back, so what is to be inspected is rendered on the way out.

import "repro/internal/prog"

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

// Inspect names one function whose SupergraphString a retiring engine
// renders just before it evicts the function's unit. Must be called
// before the engine runs.
func (en *Engine) Inspect(fnName string) { en.inspect = fnName }

// Inspection returns the supergraph of the function Inspect named — as
// rendered at retirement, or as it stands if the unit never retired (a
// failed or cancelled engine, a withheld root) — and false if there is
// no such function or this engine ran no root of its unit.
func (en *Engine) Inspection() (string, bool) {
	fn := en.Prog.Lookup(en.inspect)
	if fn == nil || en.rootsRun == nil || en.rootsRun[fn.Unit.Index] == 0 {
		return "", false
	}
	if en.inspected == "" {
		return en.SupergraphString(en.inspect), true
	}
	return en.inspected, true
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
	if fn := en.Prog.Lookup(en.inspect); fn != nil && fn.Unit == u {
		en.inspected = en.SupergraphString(en.inspect)
	}
	for _, fn := range u.Funcs {
		if en.funcs[fn.Index] != nil {
			en.funcs[fn.Index] = nil
			en.Evictions++
		}
	}
	// The DFS is between roots, so everything in its own buffers is
	// dead — and would pin the evicted blocks, their instances and the
	// ASTs about to be released until a later root overwrote it.
	clear(en.backtrace[:cap(en.backtrace)])
	clear(en.events[:cap(en.events)])
	// Every frame is in the pool between roots. A stale env would pin a
	// whole evicted funcInfo: its table is &funcInfo.terms.
	for _, st := range en.frames {
		clear(st.sm.Active[:cap(st.sm.Active)])
		clear(st.pending[:cap(st.pending)])
		st.env.Reset(nil)
	}
	clear(en.snapshot[:cap(en.snapshot)])
	clear(en.outs[:cap(en.outs)])
	clear(en.parts[:cap(en.parts)])
	en.ctx.Reset()
	if en.onRetire != nil {
		en.onRetire(u)
	}
}
