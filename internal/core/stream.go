package core

// Streaming & memory bounding (DESIGN.md §12). The engine's
// per-function caches — block summaries, suffix summaries, FPP term
// tables — are what actually grows with tree size; the streaming mode
// deletes them as soon as the unit DAG proves no in-flight traversal
// can read them again. Retirement is final: nothing is written
// anywhere and nothing comes back, so a streaming engine keeps no
// per-function state for inspection after its run.
//
// Determinism argument: eviction happens only at unit retirement —
// after the last root of a weakly-connected call-graph component has
// finished — and prog.Units guarantees no call edge crosses a
// component boundary, so no later traversal, in any phase or at any
// parallelism level, can observe the evicted state, and output stays
// byte-identical to the in-memory run.

import (
	"repro/internal/pattern"
	"repro/internal/prog"
)

// SpillCounts tallies one engine's streaming activity.
type SpillCounts struct {
	// Evictions counts funcInfo blocks released at unit retirement.
	Evictions int64 `json:"evictions"`
}

// SetRetire installs the unit-retirement schedule driving eviction:
// after each root in the engine's traversal order completes, the
// funcInfo blocks of the functions plan.After(root) returns are
// dropped. onRetire (optional) is invoked with the retired functions
// afterwards, under the engine's goroutine — the mc layer uses it to
// refcount engines for AST release. Must be called before the engine
// runs.
func (en *Engine) SetRetire(plan *prog.RetirePlan, onRetire func([]*prog.Function)) {
	en.retire = plan
	en.onRetire = onRetire
}

// retireAfter runs the eviction schedule for one completed root. A
// failed or cancelled engine stops evicting: its remaining state is
// about to be discarded wholesale, and the panic may have left this
// root's unit half-traversed.
func (en *Engine) retireAfter(root *prog.Function) {
	if en.retire == nil || en.Failure != nil || en.cancelled {
		return
	}
	fns := en.retire.After(root)
	if len(fns) == 0 {
		return
	}
	for _, fn := range fns {
		en.evict(fn)
	}
	// The DFS is between roots, so everything in its own buffers is
	// dead — and would pin the evicted blocks, their instances and the
	// ASTs about to be released until a later root overwrote it.
	clear(en.backtrace[:cap(en.backtrace)])
	clear(en.snapshot[:cap(en.snapshot)])
	clear(en.outs[:cap(en.outs)])
	clear(en.parts[:cap(en.parts)])
	en.ctx = pattern.Ctx{}
	if en.onRetire != nil {
		en.onRetire(fns)
	}
}

// evict drops one function's funcInfo block and counts it.
func (en *Engine) evict(fn *prog.Function) {
	if en.funcs[fn.Index] != nil {
		en.funcs[fn.Index] = nil
		en.Spill.Evictions++
	}
}
