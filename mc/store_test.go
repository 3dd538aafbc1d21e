package mc_test

// The analyzer over the one disk store (DESIGN.md §8): keys are what
// they have always been, failed writes are counted, and several
// analyzers may share one cache directory.

import (
	"context"
	"errors"
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
// once).
func TestStoreKeysAreStable(t *testing.T) {
	golden := []string{
		"00813a86660e8251109fd42ad144d43fc817d01a533544587fa74992ca8a1597", // the {helper, entry} unit under "free"
		"3b463f8906a9fdad5ac3e9b91289a13376046598f8076f1b3cbd09daf37e7e76", // the manifest
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
	if res := run(store.Store); res.Incr.UnitsLive != 0 || res.Incr.FuncsChanged != 0 {
		t.Errorf("warm run over the golden keys: %+v", res.Incr)
	}
}

// refusingStore reads like its inner store and refuses every write,
// like a full disk or a read-only -cache directory.
type refusingStore struct{ cache.Store }

func (refusingStore) Put(string, []byte) error { return errors.New("no space left on device") }

// TestCachePutErrorsSurface: a store that cannot be written leaves the
// run's output alone and every later run cold; IncrStats says so.
func TestCachePutErrorsSurface(t *testing.T) {
	srcs, _ := workload.MixedTree(2, 6, 7)
	plain, _ := runDigest(t, srcs, 2, nil)
	store := refusingStore{cache.NewMemStore()}
	for run := 0; run < 2; run++ {
		got, res := runDigest(t, srcs, 2, store)
		if got != plain {
			t.Errorf("run %d over a refusing store differs from the plain run:\n%s", run, firstDiff(plain, got))
		}
		// One failed call each for every phase's unit batch and the
		// manifest.
		if res.Incr.CachePutErrors < 3 || res.Incr.UnitsReplayed != 0 {
			t.Errorf("run %d: put errors=%d units replayed=%d, want >= 3 and a cold run", run, res.Incr.CachePutErrors, res.Incr.UnitsReplayed)
		}
	}
	if _, res := runDigest(t, srcs, 2, cache.NewMemStore()); res.Incr.CachePutErrors != 0 {
		t.Errorf("healthy store counted %d put errors", res.Incr.CachePutErrors)
	}
}

// TestAnalyzersShareCacheDir: a cold run over a directory store, then
// a second analyzer with its own store handle on the same directory
// while the first (and the handle it never closes) is still referenced,
// then a third: every later run replays every unit and reports the
// same thing.
func TestAnalyzersShareCacheDir(t *testing.T) {
	srcs, _ := workload.MixedTree(2, 8, 7)
	dir := t.TempDir()
	var analyzers []*mc.Analyzer
	var cold string
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
			cold = outputDigest(res)
			if in.UnitsReplayed != 0 {
				t.Fatalf("cold run replayed %d units", in.UnitsReplayed)
			}
			continue
		}
		if in.UnitsLive != 0 || in.UnitsReplayed == 0 || in.FuncsChanged != 0 {
			t.Errorf("run %d: units live=%d replayed=%d funcs changed=%d, want a full replay",
				i, in.UnitsLive, in.UnitsReplayed, in.FuncsChanged)
		}
		if got := outputDigest(res); got != cold {
			t.Errorf("run %d differs from the cold run:\n%s", i, firstDiff(cold, got))
		}
	}
	runtime.KeepAlive(analyzers)
}
