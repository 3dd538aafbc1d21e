package mc

// Retirement (DESIGN.md §12), the mc side: every engine drops a unit's
// state when the unit's last root has finished (internal/core/stream.go),
// and once every checker pass is done with a unit its functions' ASTs
// go too. No remaining traversal can read either, and no file is touched.

import (
	"sync"

	"repro/internal/prog"
)

// SpillStats reports what one run retired (Result.Spill).
type SpillStats struct {
	// Evictions counts per-engine funcInfo blocks dropped at unit
	// retirement.
	Evictions int64 `json:"evictions"`
	// ASTsReleased counts functions whose CFG/body AST was freed after
	// every checker retired them.
	ASTsReleased int64 `json:"asts_released"`
	// Reloads, SpillPuts and SpillBytes are vestiges of the deleted
	// spill store: never set, kept only because the frozen
	// benchmark/layers.go:171-173 reads them.
	Reloads    int64 `json:"-"`
	SpillPuts  int64 `json:"-"`
	SpillBytes int64 `json:"-"`
}

// astReleaser frees a unit's ASTs once every checker pass has retired
// it. Each engine's retire callback (and each replayed task) counts one
// pass for the unit; the goroutine counting the last one releases the
// bodies while holding the mutex, which also orders the write after
// every earlier reader's own count — so the release is race-free without
// the readers taking any lock on their hot path.
type astReleaser struct {
	mu       sync.Mutex
	passes   int32   // one per loaded checker
	done     []int32 // passes finished, by unit index
	released int64
}

// pass records that one checker pass is finished with the unit.
func (ar *astReleaser) pass(u *prog.Unit) {
	ar.mu.Lock()
	defer ar.mu.Unlock()
	if ar.done[u.Index]++; ar.done[u.Index] != ar.passes {
		return
	}
	for _, fn := range u.Funcs {
		fn.ReleaseBody()
	}
	ar.released += int64(len(u.Funcs))
}
