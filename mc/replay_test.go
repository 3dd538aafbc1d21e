package mc_test

// Replay-path tests for the two-section unit record and the lazy merge
// engine (DESIGN.md §8): emission order on multi-root units, summary
// inspection through the cache, and damaged or foreign records.

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"

	"repro/internal/cache"
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

// TestSupergraphThroughCache: inspection of a cached run's engines — of
// functions replayed from the store and of functions analyzed live —
// renders what the plain engine renders, and says what it cost.
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
	diffSupergraphs(t, "cold cache", want, supergraphs(cold))

	// Warm, after a body edit: one file's units run live, the rest replay.
	srcs = workload.TweakBody("tree_1.c").Apply(srcs)
	_, plain = runDigest(t, srcs, 2, nil)
	_, warm := runDigest(t, srcs, 2, store)
	in := warm.Incr
	if in.UnitsLive == 0 || in.UnitsReplayed == 0 {
		t.Fatalf("edit should mix live and replayed units, got %d/%d", in.UnitsLive, in.UnitsReplayed)
	}
	if in.SummaryBytesDeferred == 0 || in.SummariesLoaded != 0 {
		t.Errorf("before inspection: deferred=%d loaded=%d, want >0 and 0", in.SummaryBytesDeferred, in.SummariesLoaded)
	}
	deferred := in.SummaryBytesDeferred
	diffSupergraphs(t, "warm cache", supergraphs(plain), supergraphs(warm))
	if in.SummariesLoaded == 0 || in.SummaryBytesDeferred >= deferred {
		t.Errorf("after inspection: deferred=%d (was %d) loaded=%d", in.SummaryBytesDeferred, deferred, in.SummariesLoaded)
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

// TestDamagedRecords: summaries are advisory, so a record whose summary
// section is torn still replays its reports and merely renders nothing;
// a record whose replay section is torn — or that is in the v2 format,
// bare JSON — is a miss that re-runs live and is overwritten.
func TestDamagedRecords(t *testing.T) {
	srcs, _ := workload.MixedTree(2, 8, 7)
	want, _ := runDigest(t, srcs, 2, nil)

	t.Run("summary section", func(t *testing.T) {
		store := &recordingStore{inner: cache.NewMemStore()}
		runDigest(t, srcs, 2, store)
		store.rewriteUnits(t, func(data []byte) []byte { return data[:len(data)-7] })
		got, res := runDigest(t, srcs, 2, store)
		if got != want {
			t.Fatalf("torn summaries changed the output:\n%s", firstDiff(want, got))
		}
		if res.Incr.UnitsLive != 0 {
			t.Errorf("torn summaries forced %d units live", res.Incr.UnitsLive)
		}
		for k, s := range supergraphs(res) {
			if strings.Contains(s, "->") {
				t.Fatalf("supergraph of %s rendered edges from a torn section:\n%s", k, s)
			}
		}
		if res.Incr.SummariesLoaded != 0 {
			t.Errorf("%d torn sections counted as loaded", res.Incr.SummariesLoaded)
		}
	})

	for name, damage := range map[string]func([]byte) []byte{
		"replay section": func(data []byte) []byte {
			copy(data[8:], "\xff\xfe\xfd")
			return data
		},
		"v2 record": func(data []byte) []byte {
			e, _ := cache.DecodeUnit(data) // recordingStore keeps only keys that decode
			sd, _ := e.LoadSummaries()
			v2, _ := json.Marshal(map[string]any{"roots": e.Roots, "stats": e.Stats, "rules": e.Rules, "marks": e.Marks, "summaries": sd})
			return v2
		},
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
