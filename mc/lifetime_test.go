package mc

import (
	"runtime"
	"testing"

	"repro/internal/cache"
	"repro/internal/workload"
)

// heldResultCeilings bound the heap a finished run's Result keeps alive
// while it is held, as xgccd holds its last one (after runtime.GC,
// sources excluded), over MixedTree(8, 25, 2002) at Jobs 1: a cold run
// and a run through a store. Each is its reading before the front end
// carved bodies from arenas (go1.24: 181,520 and 181,584 bytes, and the
// same with them, the second up to 181,776) + 2 %; they read 178,256 and
// 178,320 since a function's tables are arrays. The retired Program keeps its
// declaration shells; a parameter carved from a body's arena would pin
// the chunk, and through it the body nodes it shares a chunk with
// (DESIGN §12.1): 293,168 and 194,864 bytes.
var heldResultCeilings = map[string]int64{"cold": 185_150, "store": 185_216}

func TestHeldResultRetains(t *testing.T) {
	srcs, _ := workload.MixedTree(8, 25, 2002)
	for _, name := range []string{"cold", "store"} {
		// A first run settles what the process keeps across runs; then
		// the least of three readings, as one is inflated by whatever
		// else the process allocated meanwhile.
		heldResult(t, srcs, name == "store")
		retained := int64(-1)
		for range 3 {
			if r := heldResult(t, srcs, name == "store"); retained < 0 || r < retained {
				retained = r
			}
		}
		t.Logf("%s: a held Result retains %d bytes (ceiling %d)", name, retained, heldResultCeilings[name])
		if retained > heldResultCeilings[name] {
			t.Errorf("%s: a held Result retains %d bytes, ceiling %d", name, retained, heldResultCeilings[name])
		}
	}
}

// heldResult runs the bundled suite over srcs, through a fresh store or
// none, and returns the heap its Result keeps alive.
func heldResult(t *testing.T, srcs map[string]string, withStore bool) int64 {
	var store cache.Store
	if withStore {
		store = cache.NewMemStore()
	}
	// Two collections: the second frees what the first left in
	// sync.Pool victim caches.
	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)
	res := streamRun(t, srcs, 1, store)
	store = nil
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(res)
	return int64(after.HeapAlloc) - int64(before.HeapAlloc)
}
