package mc

// Streaming & memory bounding (DESIGN.md §12): the mc-side wiring of
// the engine's retire hook. When RunConfig.MaxResidentMB > 0 the run
// streams: every engine drops a function's funcInfo caches the moment
// the unit DAG retires it, and once every checker has retired a
// function its AST is released too (astReleaser). Output is
// byte-identical to the in-memory run — retirement only ever touches
// state no remaining traversal can read (see internal/core/stream.go
// for the argument) — and the run touches no file. A streaming run
// keeps no per-function state for inspection: supergraph dumps render
// empty, and InferPairs sees no call sites. To inspect, run resident.

import (
	"sync"

	"repro/internal/core"
	"repro/internal/prog"
)

// SpillStats reports one streaming run's memory-bounding activity
// (Result.Spill; nil when streaming is off).
type SpillStats struct {
	// Evictions counts per-engine funcInfo blocks dropped at unit
	// retirement.
	Evictions int64 `json:"evictions"`
	// ASTsReleased counts functions whose CFG/body AST was freed after
	// every checker retired them.
	ASTsReleased int64 `json:"asts_released"`
	// Reloads, SpillPuts and SpillBytes are vestiges of the deleted
	// summary spill store: nothing sets them, and they stay only
	// because the frozen benchmark/layers.go:171-173 reads them.
	Reloads    int64 `json:"-"`
	SpillPuts  int64 `json:"-"`
	SpillBytes int64 `json:"-"`
}

// astReleaser frees a function's AST once every checker has retired
// it. Each engine's retire callback (and each replayed task) decrements
// the function's countdown; the goroutine performing the final decrement releases the body while holding the
// mutex, which also orders the write after every earlier reader's own
// decrement — so the release is race-free without the readers taking
// any lock on their hot path.
type astReleaser struct {
	mu       sync.Mutex
	left     map[*prog.Function]int
	released int64
}

func newASTReleaser(fns []*prog.Function, need int) *astReleaser {
	left := make(map[*prog.Function]int, len(fns))
	for _, fn := range fns {
		left[fn] = need
	}
	return &astReleaser{left: left}
}

// done records that one checker is finished with the given functions,
// releasing any whose countdown reaches zero.
func (ar *astReleaser) done(fns []*prog.Function) {
	ar.mu.Lock()
	defer ar.mu.Unlock()
	for _, fn := range fns {
		n, ok := ar.left[fn]
		if !ok {
			continue
		}
		if n--; n > 0 {
			ar.left[fn] = n
			continue
		}
		delete(ar.left, fn)
		fn.ReleaseBody()
		ar.released++
	}
}

func (ar *astReleaser) count() int64 {
	ar.mu.Lock()
	defer ar.mu.Unlock()
	return ar.released
}

// streamState is one run's streaming context: the retirement schedule
// and the AST releaser.
type streamState struct {
	retire  *prog.RetirePlan
	release *astReleaser
}

// newStream builds the run's streaming context. need is how many
// checker passes must retire a function before its AST may go.
func newStream(p *prog.Program, need int) *streamState {
	return &streamState{retire: p.PlanRetire(p.Roots), release: newASTReleaser(p.All, need)}
}

// collectSpill folds the run's streaming counters into the result.
func collectSpill(res *Result, st *streamState, engines []*core.Engine) {
	if st == nil {
		return
	}
	sp := &SpillStats{ASTsReleased: st.release.count()}
	for _, en := range engines {
		if en != nil {
			sp.Evictions += en.Spill.Evictions
		}
	}
	res.Spill = sp
}
