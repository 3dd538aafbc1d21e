package mc_test

// Replay-path tests (DESIGN.md §8): emission order on multi-root units,
// what a cached run's engines hold for inspection, and damaged or
// foreign records.

import (
	"encoding/json"
	"os"
	"strings"
	"sync"
	"testing"

	"repro/internal/cache"
	"repro/internal/cc"
	"repro/internal/prog"
	"repro/internal/workload"
	"repro/mc"
)

// interleavedTree has two call-graph units whose roots interleave in
// global root order (roots sort by name): r1, r3, r5 share helper_a,
// r2 and r4 share helper_b. Every root holds the same use-after-free,
// so the reports tie on every ranking criterion and only emission order
// separates them.
const interleavedTree = `
void kfree(void *p);
static int helper_a(int x) { return x + 1; }
static int helper_b(int x) { return x + 2; }
int r1(int *p) { kfree(p); return helper_a(*p); }
int r2(int *p) { kfree(p); return helper_b(*p); }
int r3(int *p) { kfree(p); return helper_a(*p); }
int r4(int *p) { kfree(p); return helper_b(*p); }
int r5(int *p) { kfree(p); return helper_a(*p); }
`

func rankedText(res *mc.Result) string {
	var sb strings.Builder
	for _, r := range res.Ranked() {
		sb.WriteString(r.Detailed())
	}
	return sb.String()
}

// TestMultiRootUnitsRankLikePlain pins Ranked() of the cached path byte
// for byte to the no-cache -j 1 run when units have several roots
// interleaved with another unit's: segments merge per root in global
// root order, not unit by unit.
func TestMultiRootUnitsRankLikePlain(t *testing.T) {
	srcs := map[string]string{"inter.c": interleavedTree}
	_, plain := runDigest(t, srcs, 1, nil)
	want := rankedText(plain)
	if n := len(plain.Reports); n < 5 {
		t.Fatalf("tree produced %d reports, want one per root", n)
	}
	for _, jobs := range []int{1, 8} {
		store := cache.NewMemStore()
		for _, temp := range []string{"cold", "warm"} {
			_, res := runDigest(t, srcs, jobs, store)
			if got := rankedText(res); got != want {
				t.Errorf("-j %d %s cache: Ranked() differs from the plain engine:\n%s",
					jobs, temp, firstDiff(want, got))
			}
			if temp == "warm" && res.Incr.UnitsLive != 0 {
				t.Errorf("-j %d warm run analyzed %d units live", jobs, res.Incr.UnitsLive)
			}
		}
	}
}

// supergraphs renders every function under every checker.
func supergraphs(res *mc.Result) map[string]string {
	out := map[string]string{}
	for c, en := range res.Engines {
		for _, fn := range res.Program.All {
			out[c+"/"+fn.Name] = en.SupergraphString(fn.Name)
		}
	}
	return out
}

func diffSupergraphs(t *testing.T, label string, want, got map[string]string) {
	t.Helper()
	for k, w := range want {
		if got[k] != w {
			t.Errorf("%s: supergraph of %s differs:\n%s", label, k, firstDiff(w, got[k]))
			return
		}
	}
}

// TestSupergraphThroughCache: a cached run's engines hold what the run
// traversed. On a cold run that is everything: every function renders
// under every checker exactly as on the plain run, which only one engine
// per checker holding every unit can satisfy. On a warm run the functions
// of live units still do; replayed ones were not traversed and render no
// edges.
func TestSupergraphThroughCache(t *testing.T) {
	srcs, _ := workload.MixedTree(3, 8, 11)
	store := cache.NewMemStore()
	_, plain := runDigest(t, srcs, 2, nil)
	_, cold := runDigest(t, srcs, 2, store)
	want := supergraphs(plain)
	nonEmpty := 0
	for _, s := range want {
		if strings.Contains(s, "->") {
			nonEmpty++
		}
	}
	if nonEmpty == 0 {
		t.Fatal("plain engine rendered no summary edges; the comparison would be vacuous")
	}
	if got := supergraphs(cold); len(got) != len(want) {
		t.Fatalf("cold cache rendered %d (checker, function) pairs, the plain run %d", len(got), len(want))
	}
	diffSupergraphs(t, "cold cache", want, supergraphs(cold))

	// Warm, after a body edit: the functions whose content moved run live
	// (MixedTree units are single functions), the rest replay.
	oldHash := map[string]string{}
	for _, fn := range cold.Program.All {
		oldHash[prog.FuncID(fn)] = cc.HashDecl(fn.Decl)
	}
	srcs = workload.TweakBody("tree_1.c").Apply(srcs)
	_, plain = runDigest(t, srcs, 2, nil)
	_, warm := runDigest(t, srcs, 2, store)
	in := warm.Incr
	if in.UnitsLive == 0 || in.UnitsReplayed == 0 {
		t.Fatalf("edit should mix live and replayed units, got %d/%d", in.UnitsLive, in.UnitsReplayed)
	}
	want, got := supergraphs(plain), supergraphs(warm)
	liveEdges := 0
	for k, w := range want {
		fn := plain.Program.Lookup(k[strings.Index(k, "/")+1:])
		switch edited := oldHash[prog.FuncID(fn)] != cc.HashDecl(fn.Decl); {
		case edited && got[k] != w:
			t.Fatalf("warm cache: supergraph of live %s differs:\n%s", k, firstDiff(w, got[k]))
		case edited:
			liveEdges += strings.Count(w, "->")
		case strings.Contains(got[k], "->"):
			t.Fatalf("warm cache: replayed %s rendered edges nobody traversed:\n%s", k, got[k])
		}
	}
	if liveEdges == 0 {
		t.Fatal("the live units rendered no summary edges; the warm comparison is vacuous")
	}
}

// recordingStore remembers which keys hold unit records.
type recordingStore struct {
	inner *cache.MemStore
	mu    sync.Mutex
	keys  []string
}

func (s *recordingStore) Get(key string) ([]byte, bool) { return s.inner.Get(key) }

func (s *recordingStore) Put(key string, data []byte) error {
	if _, err := cache.DecodeUnit(data); err == nil {
		s.mu.Lock()
		s.keys = append(s.keys, key)
		s.mu.Unlock()
	}
	return s.inner.Put(key, data)
}

// rewriteUnits replaces every unit record in the store.
func (s *recordingStore) rewriteUnits(t *testing.T, f func(data []byte) []byte) {
	t.Helper()
	if len(s.keys) == 0 {
		t.Fatal("cold run stored no unit records")
	}
	for _, k := range s.keys {
		data, _ := s.Get(k)
		s.inner.Put(k, f(append([]byte(nil), data...)))
	}
}

// TestDamagedRecords: a record that is torn, or in an older format — v2,
// bare JSON, or v3, two sections (testdata holds a real one) — is a miss
// that re-runs live and is overwritten.
func TestDamagedRecords(t *testing.T) {
	srcs, _ := workload.MixedTree(2, 8, 7)
	want, _ := runDigest(t, srcs, 2, nil)
	v3, err := os.ReadFile("../internal/cache/testdata/unit-v3.bin")
	if err != nil {
		t.Fatal(err)
	}

	for name, damage := range map[string]func([]byte) []byte{
		"replay section": func(data []byte) []byte {
			copy(data[8:], "\xff\xfe\xfd")
			return data
		},
		"v2 record": func(data []byte) []byte {
			e, _ := cache.DecodeUnit(data) // recordingStore keeps only keys that decode
			v2, _ := json.Marshal(map[string]any{"roots": e.Roots, "stats": e.Stats, "rules": e.Rules, "marks": e.Marks, "summaries": nil})
			return v2
		},
		"v3 record": func([]byte) []byte { return v3 },
	} {
		t.Run(name, func(t *testing.T) {
			store := &recordingStore{inner: cache.NewMemStore()}
			_, cold := runDigest(t, srcs, 2, store)
			keys := append([]string(nil), store.keys...)
			store.rewriteUnits(t, damage)
			got, res := runDigest(t, srcs, 2, store)
			if got != want {
				t.Fatalf("damaged records changed the output:\n%s", firstDiff(want, got))
			}
			if res.Incr.UnitsReplayed != 0 || res.Incr.UnitsLive != cold.Incr.UnitsLive {
				t.Errorf("damaged records: %d replayed, %d live (cold run: %d live)",
					res.Incr.UnitsReplayed, res.Incr.UnitsLive, cold.Incr.UnitsLive)
			}
			for _, k := range keys {
				data, _ := store.Get(k)
				if _, err := cache.DecodeUnit(data); err != nil {
					t.Fatalf("record %s was not overwritten: %v", k[:8], err)
				}
			}
		})
	}
}
