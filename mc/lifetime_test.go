package mc

import (
	"fmt"
	"runtime"
	"strings"
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
// 178,320 since a function's tables are arrays, and 170,560 and 170,624
// since a pointer type is made once per element. They read 170,560 and
// 170,640 (170,592 and 170,640 under -race) when CFG blocks, edges and
// tokens shrank, which a held Result does not keep: each ceiling is its
// reading + 5 %. The retired Program keeps its declaration shells, copied out of the pass's arena; a
// parameter it kept in a pass chunk would pin the chunk, and through it
// the nodes it shares a chunk with (DESIGN §12.1): 283,472 and 179,552
// bytes (293,168 and 194,864 when parameters were a body's).
var heldResultCeilings = map[string]int64{"cold": 179_088, "store": 179_172}

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

// heldPrototypeSlack bounds how many more bytes a held Result over
// MixedTree(8, 25, 2002) keeps when each file declares 100 extra
// prototypes, spread over its definitions, than when it declares 10
// (go1.24: 170,576 and 170,624 bytes; 297,936 and 429,312 when the
// Program kept the parser's parameters instead of copying them), and the
// second is under the cold ceiling of TestHeldResultRetains. Prototypes
// are transient, and their parameters share the parser's chunks with the
// definitions': a Program that kept pointing at the parser's parameters
// instead of its own copies would pin those chunks, and with them every
// prototype parameter the list chunks point at (DESIGN §12.1).
const heldPrototypeSlack = 2_048

func TestHeldResultIgnoresPrototypes(t *testing.T) {
	srcs, _ := workload.MixedTree(8, 25, 2002)
	held := func(k int) int64 {
		tree := withPrototypes(srcs, k)
		heldResult(t, tree, false)
		retained := int64(-1)
		for range 3 {
			if r := heldResult(t, tree, false); retained < 0 || r < retained {
				retained = r
			}
		}
		return retained
	}
	few, many := held(10), held(100)
	t.Logf("a held Result retains %d bytes with 10 extra prototypes a file, %d with 100", few, many)
	if many-few > heldPrototypeSlack {
		t.Errorf("a held Result retains %d bytes with 100 extra prototypes a file, %d with 10: more than %d apart",
			many, few, heldPrototypeSlack)
	}
	if many > heldResultCeilings["cold"] {
		t.Errorf("a held Result retains %d bytes with 100 extra prototypes a file, ceiling %d", many, heldResultCeilings["cold"])
	}
}

// withPrototypes spreads k prototypes of two parameters each over every
// file's definitions.
func withPrototypes(srcs map[string]string, k int) map[string]string {
	out := make(map[string]string, len(srcs))
	for name, src := range srcs {
		defs := strings.SplitAfter(src, "\n}\n")
		var sb strings.Builder
		for i, d := range defs {
			sb.WriteString(d)
			for j := i * k / len(defs); j < (i+1)*k/len(defs); j++ {
				fmt.Fprintf(&sb, "int ext%d(int *p, int n);\n", j)
			}
		}
		out[name] = sb.String()
	}
	return out
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
