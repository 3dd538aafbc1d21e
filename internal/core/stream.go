package core

// Streaming & memory bounding (DESIGN.md §12). The engine's
// per-function caches — block summaries, suffix summaries, match
// memos — are what actually grows with tree size; the streaming mode
// evicts them as soon as the unit DAG proves no in-flight traversal
// can read them again, spilling the serializable portion (§6.2
// summaries) to an on-disk store so post-run inspection can reload it
// on demand.
//
// Determinism argument: eviction happens only at unit retirement —
// after the last root of a weakly-connected call-graph component has
// finished — and prog.Units guarantees no call edge crosses a
// component boundary, so no later traversal, in any phase or at any
// parallelism level, can observe the evicted state. Reload is gated to
// functions this engine itself spilled, that is, to functions whose
// unit it has finished (a checker has one engine per run, so there is
// no sibling whose evictions it could want): a spilled summary can
// therefore never feed a live traversal, the same invariant
// ImportSummaries documents, and output stays byte-identical to the
// in-memory run.

import "repro/internal/prog"

// SummarySpill is the on-disk function-summary store the streaming
// mode spills to (implemented by internal/spill over a cache.Store).
// Implementations must be safe for concurrent use: engines running in
// parallel spill and reload through one shared store.
type SummarySpill interface {
	// PutSummary persists one function's serialized summaries.
	PutSummary(key string, sd *SummaryData) error
	// GetSummary loads a previously spilled summary; ok is false on a
	// miss or decode failure.
	GetSummary(key string) (*SummaryData, bool)
}

// SpillCounts tallies one engine's streaming activity.
type SpillCounts struct {
	// Evictions counts funcInfo blocks released at unit retirement.
	Evictions int64 `json:"evictions"`
	// Reloads counts summaries decoded back from the store for
	// post-run inspection.
	Reloads int64 `json:"reloads"`
}

// SetSpill attaches a summary store and a key function mapping each
// program function to its content-addressed store key. Must be called
// before the engine runs.
func (en *Engine) SetSpill(store SummarySpill, key func(*prog.Function) string) {
	en.spill = store
	en.spillKey = key
}

// SetRetire installs the unit-retirement schedule driving eviction:
// after each root in the engine's traversal order completes, the
// functions plan.After(root) returns are spilled and their funcInfo
// blocks dropped. onRetire (optional) is invoked with the retired
// functions after the spill, under the engine's goroutine — the mc
// layer uses it to refcount engines for AST release.
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
	if en.onRetire != nil {
		en.onRetire(fns)
	}
}

// evict spills one function's summaries (best effort — a store write
// failure only costs later inspection, never correctness) and drops
// its funcInfo block.
func (en *Engine) evict(fn *prog.Function) {
	if _, ok := en.funcs[fn]; !ok {
		return
	}
	if en.spill != nil && en.spillKey != nil {
		_ = en.spill.PutSummary(en.spillKey(fn), en.ExportSummaries([]*prog.Function{fn}))
		if en.spilled == nil {
			en.spilled = map[*prog.Function]bool{}
		}
		en.spilled[fn] = true
	}
	delete(en.funcs, fn)
	en.Spill.Evictions++
}

// maybeReload repopulates a freshly created funcInfo from the spill
// store. Gated to functions this engine spilled, so it can only run
// after the function's unit retired — never during live traversal.
func (en *Engine) maybeReload(fn *prog.Function) {
	if en.spill == nil || en.spillKey == nil || !en.spilled[fn] {
		return
	}
	if sd, ok := en.spill.GetSummary(en.spillKey(fn)); ok {
		en.ImportSummaries(sd) // fn's funcInfo is already registered in en.funcs
		en.Spill.Reloads++
	}
}
