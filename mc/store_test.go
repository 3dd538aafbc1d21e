package mc_test

// The analyzer over the one disk store (DESIGN.md §8): keys are what
// they have always been, failed writes are counted, and several
// analyzers may share one cache directory.

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"testing"

	"repro/internal/cache"
	"repro/internal/workload"
	"repro/mc"
)

const keySrc = `void kfree(void *p);
static int helper(int *p) { kfree(p); return 0; }
int entry(int *p) { helper(p); return *p; }
`

// keyLog records every key written through it.
type keyLog struct {
	cache.Store
	mu   sync.Mutex
	keys []string
}

func (s *keyLog) Put(key string, data []byte) error {
	s.mu.Lock()
	s.keys = append(s.keys, key)
	s.mu.Unlock()
	return s.Store.Put(key, data)
}

// TestStoreKeysAreStable pins the key derivation: the keys a cold run
// writes for one small unit are the ones the previous release derived
// (golden, below), so a cache it filled still hits. Hoisting a hash out
// of a loop, or handing it to another function, must not move a key;
// changing what a key covers means moving these goldens deliberately —
// done for xgcc-cache-v4 (unit records lost their summary section; only
// the version folded into each key changed), and again when the
// engine-global block bound left core.Options and its column left the
// options fingerprint (every key moved; a cache filled before runs cold
// once), and again when the engine's two caps left it (a unit that hits
// one is degraded and never stored, so no record depends on them; the
// key was 00813a86…), and again for xgcc-cache-v5 (unit records became
// binary; only the version folded into each key changed: under
// "xgcc-cache-v4" the derivation still gives 69afda82…).
func TestStoreKeysAreStable(t *testing.T) {
	golden := []string{
		"7dd70ae9446b6a72b2b9e0688b064ac1e993d59056aadbc00a3c28e2da316efd", // the {helper, entry} unit under "free"
	}

	store := &keyLog{Store: cache.NewMemStore()}
	run := func(s cache.Store) *mc.Result {
		t.Helper()
		a := mc.NewAnalyzer()
		if err := a.Configure(mc.RunConfig{Jobs: 1, CacheStore: s}); err != nil {
			t.Fatal(err)
		}
		a.AddSource("k.c", keySrc)
		if err := a.LoadBundledChecker("free"); err != nil {
			t.Fatal(err)
		}
		res, err := a.RunContext(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	run(store)
	sort.Strings(store.keys)
	if len(store.keys) != len(golden) {
		t.Fatalf("cold run wrote %d keys, want %d: %q", len(store.keys), len(golden), store.keys)
	}
	for i, k := range store.keys {
		if k != golden[i] {
			t.Errorf("key %d = %s, golden %s", i, k, golden[i])
		}
	}
	// A store holding only the golden keys is a full hit.
	if res := run(store.Store); res.Incr.UnitsLive != 0 || res.Incr.FuncsInvalidated != 0 {
		t.Errorf("warm run over the golden keys: %+v", res.Incr)
	}
}

// refusingStore reads like its inner store and refuses every write,
// like a full disk or a read-only -cache directory.
type refusingStore struct{ cache.Store }

func (refusingStore) Put(string, []byte) error { return errors.New("no space left on device") }

// TestCachePutErrorsSurface: a store that cannot be written leaves the
// run's output alone and every later run cold; IncrStats says so, and
// says it per run: one analyzer run twice counts each run's own failed
// calls, not the sum so far.
func TestCachePutErrorsSurface(t *testing.T) {
	srcs, _ := workload.MixedTree(2, 6, 7)
	plain, _ := runDigest(t, srcs, 2, nil)
	a := newIncrAnalyzer(t, srcs, 2, refusingStore{cache.NewMemStore()})
	var first *mc.IncrStats
	for run := 0; run < 2; run++ {
		res, err := a.RunContext(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if got := outputDigest(res); got != plain {
			t.Errorf("run %d over a refusing store differs from the plain run:\n%s", run, firstDiff(plain, got))
		}
		// One failed call for every phase's unit batch.
		in := res.Incr
		if in.CachePutErrors < 2 || in.UnitsReplayed != 0 {
			t.Errorf("run %d: put errors=%d units replayed=%d, want >= 2 and a cold run", run, in.CachePutErrors, in.UnitsReplayed)
		}
		if first == nil {
			first = in
		} else if in.CachePutErrors != first.CachePutErrors || in.CachePuts != first.CachePuts || in.CacheMisses != first.CacheMisses {
			t.Errorf("second run counted put errors=%d puts=%d misses=%d, the first %d/%d/%d: counters carried over",
				in.CachePutErrors, in.CachePuts, in.CacheMisses, first.CachePutErrors, first.CachePuts, first.CacheMisses)
		}
	}
	if _, res := runDigest(t, srcs, 2, cache.NewMemStore()); res.Incr.CachePutErrors != 0 {
		t.Errorf("healthy store counted %d put errors", res.Incr.CachePutErrors)
	}
}

// pathkillReader reports every call to a function marked "pathkill".
// Loaded before panic-marker, which writes that mark, it must see none
// (§3.2: a checker sees the marks of checkers loaded before it).
const pathkillReader = `
sm reader;
decl any_fn_call fn;
decl any_arguments args;
start:
    { fn(args) } && ${ mc_fn_marked(fn, "pathkill") } ==> start, { err("call to a path-killing function"); }
;`

// TestRunTwiceIsOneRun: an analyzer keeps configuration, not state, so
// running it twice is running the same analysis twice. The second run
// sees none of the marks the first wrote, so pathkillReader stays
// silent both times; over a store it replays every unit the first ran
// live and counts only its own store traffic.
func TestRunTwiceIsOneRun(t *testing.T) {
	for _, store := range []cache.Store{nil, cache.NewMemStore()} {
		a := mc.NewAnalyzer()
		if err := a.Configure(mc.RunConfig{Jobs: 1, CacheStore: store}); err != nil {
			t.Fatal(err)
		}
		a.AddSource("t.c", "void panic(void);\nvoid die(int x) { if (x) { panic(); } }\n")
		if err := a.LoadChecker(pathkillReader); err != nil {
			t.Fatal(err)
		}
		if err := a.LoadBundledChecker("panic-marker"); err != nil {
			t.Fatal(err)
		}
		var first *mc.Result
		for run := 0; run < 2; run++ {
			res, err := a.RunContext(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Reports) != 0 {
				t.Errorf("store %v, run %d: the reader saw a mark written after it (%d reports)", store != nil, run, len(res.Reports))
			}
			if run == 0 {
				first = res
				continue
			}
			if got, want := rankedText(res), rankedText(first); got != want {
				t.Errorf("store %v: the second run differs from the first:\n%s", store != nil, firstDiff(want, got))
			}
			if store == nil {
				continue
			}
			if first.Incr.UnitsLive == 0 {
				t.Fatal("the cold run ran no unit live")
			}
			if in := res.Incr; in.UnitsLive != 0 || in.UnitsReplayed != first.Incr.UnitsLive ||
				in.CacheMisses != 0 || in.CachePuts != 0 || in.CachePutErrors != 0 {
				t.Errorf("second run: units live=%d replayed=%d (cold: %d live); store misses=%d puts=%d put-errors=%d, want a full replay that writes nothing",
					in.UnitsLive, in.UnitsReplayed, first.Incr.UnitsLive, in.CacheMisses, in.CachePuts, in.CachePutErrors)
			}
		}
	}
}

// TestAnalyzersShareCacheDir: a cold run over a directory store, then
// a second analyzer with its own store handle on the same directory
// while the first (and the handle it never closes) is still referenced,
// then a third: every later run replays every unit, reports the same
// thing, and writes nothing — the store holds content only, so a run
// with no edit leaves store.log as it found it.
func TestAnalyzersShareCacheDir(t *testing.T) {
	srcs, _ := workload.MixedTree(2, 8, 7)
	dir := t.TempDir()
	logSize := func() int64 {
		fi, err := os.Stat(filepath.Join(dir, "store.log"))
		if err != nil {
			t.Fatal(err)
		}
		return fi.Size()
	}
	var analyzers []*mc.Analyzer
	var cold string
	var coldSize int64
	for i := 0; i < 3; i++ {
		ds, err := cache.NewDirStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		a := mc.NewAnalyzer()
		if err := a.Configure(mc.RunConfig{Jobs: 2, CacheStore: ds}); err != nil {
			t.Fatal(err)
		}
		analyzers = append(analyzers, a)
		for name, src := range srcs {
			a.AddSource(name, src)
		}
		for _, c := range incrCheckers {
			if err := a.LoadBundledChecker(c); err != nil {
				t.Fatal(err)
			}
		}
		res, err := a.RunContext(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		in := res.Incr
		if in.Store == nil || in.Store.Records == 0 || in.CachePutErrors != 0 {
			t.Fatalf("run %d: store stats %+v, put errors %d", i, in.Store, in.CachePutErrors)
		}
		if i == 0 {
			cold, coldSize = outputDigest(res), logSize()
			if in.UnitsReplayed != 0 {
				t.Fatalf("cold run replayed %d units", in.UnitsReplayed)
			}
			continue
		}
		if in.UnitsLive != 0 || in.UnitsReplayed == 0 || in.FuncsInvalidated != 0 {
			t.Errorf("run %d: units live=%d replayed=%d funcs invalidated=%d, want a full replay",
				i, in.UnitsLive, in.UnitsReplayed, in.FuncsInvalidated)
		}
		if size := logSize(); in.CachePuts != 0 || in.Store.SupersededBytes != 0 || size != coldSize {
			t.Errorf("run %d: %d puts, %d superseded bytes, store.log %d bytes after the cold run's %d: a warm run wrote",
				i, in.CachePuts, in.Store.SupersededBytes, size, coldSize)
		}
		if got := outputDigest(res); got != cold {
			t.Errorf("run %d differs from the cold run:\n%s", i, firstDiff(cold, got))
		}
	}
	runtime.KeepAlive(analyzers)
}

// TestInvalidationCountIsPerRun: analyzers sharing one store count what
// their own run missed, not what another analyzer's tree differs by. A
// runs the tree, B runs it with one body tweaked, A runs it again and
// replays every unit, so it invalidated nothing.
func TestInvalidationCountIsPerRun(t *testing.T) {
	srcs, _ := workload.MixedTree(3, 10, 2002)
	tweaked := workload.TweakBody("tree_1.c").Apply(srcs)
	store := cache.NewMemStore()
	_, a := runDigest(t, srcs, 2, store)
	_, b := runDigest(t, tweaked, 2, store)
	_, again := runDigest(t, srcs, 2, store)
	if units := a.Incr.UnitsLive; a.Incr.FuncsInvalidated != len(a.Program.All) || units == 0 {
		t.Errorf("cold run: %d funcs invalidated of %d, %d units live", a.Incr.FuncsInvalidated, len(a.Program.All), units)
	}
	if b.Incr.FuncsInvalidated == 0 || b.Incr.UnitsLive == 0 {
		t.Errorf("tweaked run: %d funcs invalidated, %d units live, want the edited units", b.Incr.FuncsInvalidated, b.Incr.UnitsLive)
	}
	if in := again.Incr; in.FuncsInvalidated != 0 || in.UnitsLive != 0 || in.UnitsReplayed != a.Incr.UnitsLive {
		t.Errorf("A again: %d funcs invalidated, %d live, %d of %d units replayed, want 0, 0 and all",
			in.FuncsInvalidated, in.UnitsLive, in.UnitsReplayed, a.Incr.UnitsLive)
	}
}
