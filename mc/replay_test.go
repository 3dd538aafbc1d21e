package mc_test

// Replay-path tests (DESIGN.md §8): emission order on multi-root units,
// inspection after a cached run, and damaged or foreign records.

import (
	"context"
	"encoding/json"
	"os"
	"strings"
	"sync"
	"testing"

	"repro/internal/cache"
	"repro/internal/checkers"
	"repro/internal/core"
	"repro/internal/metal"
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

// supergraphRun runs newIncrAnalyzer's analyzer, then inspects fn on
// it, and returns both.
func supergraphRun(t *testing.T, srcs map[string]string, fn string, store cache.Store) (*mc.Result, map[string]string) {
	t.Helper()
	a := newIncrAnalyzer(t, srcs, 2, store)
	res, err := a.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	graphs, err := a.Supergraph(context.Background(), fn)
	if err != nil {
		t.Fatal(err)
	}
	return res, graphs
}

// residentSupergraphs renders fn under every checker of newIncrAnalyzer
// on engines that retire nothing: one core.Engine per checker, phase by
// phase over one prog.Build, nobody calling SetRetire.
func residentSupergraphs(t *testing.T, srcs map[string]string, fn string) map[string]string {
	t.Helper()
	p, err := prog.BuildSource(srcs)
	if err != nil {
		t.Fatal(err)
	}
	var cs []*metal.Checker
	for _, name := range incrCheckers {
		c, err := checkers.Parse(name)
		if err != nil {
			t.Fatal(err)
		}
		cs = append(cs, c)
	}
	shared := core.NewShared()
	shared.Mark("printk", "blocking")
	out := map[string]string{}
	for _, phase := range core.PlanPhases(cs) {
		for _, ci := range phase {
			en := core.NewEngineShared(p, cs[ci], mc.DefaultOptions(), shared)
			en.RunContext(context.Background())
			out[cs[ci].Name] = en.SupergraphString(fn)
		}
	}
	return out
}

func diffSupergraphs(t *testing.T, label string, want, got map[string]string) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: rendered under %d checkers, want %d", label, len(got), len(want))
	}
	for k, w := range want {
		if got[k] != w {
			t.Errorf("%s: supergraph under %s differs:\n%s", label, k, firstDiff(w, got[k]))
			return
		}
	}
}

// TestSupergraphThroughCache: Analyzer.Supergraph is a run of its own,
// so it renders what an engine that retires nothing holds at the end of
// its run — for a root, a hot helper and a leaf alike, under every
// checker — whatever the analysis run before it replayed: no store, a
// cold one, a warm one, and a warm one after an edit that sends one unit
// back to the engines and replays the other. A name the program does
// not define renders nil.
func TestSupergraphThroughCache(t *testing.T) {
	srcs := workload.CallRichTree()
	edges := 0
	for _, fn := range []string{"root_double", "drop", "add"} {
		want := residentSupergraphs(t, srcs, fn)
		for _, s := range want {
			edges += strings.Count(s, "->")
		}
		store := cache.NewMemStore()
		_, plain := supergraphRun(t, srcs, fn, nil)
		diffSupergraphs(t, fn+", no store", want, plain)
		_, cold := supergraphRun(t, srcs, fn, store)
		diffSupergraphs(t, fn+", cold store", want, cold)
		res, warm := supergraphRun(t, srcs, fn, store)
		if res.Incr.UnitsLive != 0 {
			t.Errorf("%s, warm store: %d units live, want a full replay", fn, res.Incr.UnitsLive)
		}
		diffSupergraphs(t, fn+", warm store", want, warm)
	}
	if edges == 0 {
		t.Fatal("the resident engines rendered no summary edge; the comparison would be vacuous")
	}
	for _, fn := range []string{"", "no_such_function"} {
		if _, graphs := supergraphRun(t, srcs, fn, nil); graphs != nil {
			t.Errorf("%q is not defined, yet it rendered %v", fn, graphs)
		}
	}

	// Warm, after a body edit to root_clean: its unit {root_clean, add}
	// runs live, drop's unit replays.
	store := cache.NewMemStore()
	supergraphRun(t, srcs, "add", store)
	edited := map[string]string{}
	for name, src := range srcs {
		edited[name] = strings.Replace(src, "{ return add(a, b) + add(b, a); }", "{ if (a) return add(a, b); return add(b, a); }", 1)
	}
	if edited["roots.c"] == srcs["roots.c"] {
		t.Fatal("the edit did not apply")
	}
	res, add := supergraphRun(t, edited, "add", store)
	if in := res.Incr; in.UnitsLive == 0 || in.UnitsReplayed == 0 {
		t.Fatalf("edit should mix live and replayed units, got %d/%d", in.UnitsLive, in.UnitsReplayed)
	}
	diffSupergraphs(t, "add, warm store after an edit to its caller", residentSupergraphs(t, edited, "add"), add)
	_, drop := supergraphRun(t, edited, "drop", store)
	diffSupergraphs(t, "drop, its unit replayed after the edit", residentSupergraphs(t, edited, "drop"), drop)
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

// TestDamagedRecords: a record that is scribbled on, or in an older
// format — v2, bare JSON; v3, two sections; v4, magic and JSON
// (testdata holds a real one of each of the last two) — is a miss that
// re-runs live and is overwritten.
func TestDamagedRecords(t *testing.T) {
	srcs, _ := workload.MixedTree(2, 8, 7)
	want, _ := runDigest(t, srcs, 2, nil)
	v3, err := os.ReadFile("../internal/cache/testdata/unit-v3.bin")
	if err != nil {
		t.Fatal(err)
	}
	v4, err := os.ReadFile("../internal/cache/testdata/unit-v4.bin")
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
		"v4 record": func([]byte) []byte { return v4 },
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

// TestEveryRecordRejectsDamage: over every record a cold run of a
// generated tree writes, every truncation and every single-byte change
// is a decode error, never a different entry. The record's CRC-32C
// trailer is what makes this hold: the body alone would decode many a
// scribble into other reports.
func TestEveryRecordRejectsDamage(t *testing.T) {
	srcs, _ := workload.MixedTree(2, 8, 7)
	store := &recordingStore{inner: cache.NewMemStore()}
	runDigest(t, srcs, 2, store)
	if len(store.keys) == 0 {
		t.Fatal("cold run stored no unit records")
	}
	var cuts, flips int
	for _, k := range store.keys {
		data, _ := store.Get(k)
		for cut := 0; cut < len(data); cut++ {
			cuts++
			if _, err := cache.DecodeUnit(data[:cut]); err == nil {
				t.Fatalf("record %.8s cut at %d of %d decoded", k, cut, len(data))
			}
		}
		damaged := append([]byte(nil), data...)
		for i := range damaged {
			for _, x := range []byte{0x01, 0x80, 0xff} {
				flips++
				damaged[i] ^= x
				_, err := cache.DecodeUnit(damaged)
				damaged[i] ^= x
				if err == nil {
					t.Fatalf("record %.8s with byte %d xor %#x decoded", k, i, x)
				}
			}
		}
	}
	t.Logf("%d records: %d cuts and %d byte changes, each refused", len(store.keys), cuts, flips)
}
