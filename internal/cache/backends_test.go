package cache_test

// Backend conformance (DESIGN.md §15): every Store backend — memory,
// dir, HTTP-over-memory, HTTP-over-dir, and the metrics wrapper —
// must pass the one shared suite, under -race; the disk store also
// passes the reopen suite (DESIGN.md §8). The HTTP cases spin a
// real CASServer over a loopback listener, so the wire encoding
// (base64 batch envelopes, 404-as-miss, HEAD probes) is covered too.

import (
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/cache/cachetest"
)

func TestMemStoreConformance(t *testing.T) {
	cachetest.Conformance(t, func(t *testing.T) cache.Store {
		return cache.NewMemStore()
	})
}

func TestDirStoreConformance(t *testing.T) {
	cachetest.Conformance(t, func(t *testing.T) cache.Store {
		s, err := cache.NewDirStore(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		return s
	})
}

func TestDirStoreReopen(t *testing.T) {
	cachetest.Reopen(t, func(t *testing.T, dir string) cache.Store {
		s, err := cache.NewDirStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}, func(dir string) string { return filepath.Join(dir, "store.log") })
}

func TestMetricsWrapperConformance(t *testing.T) {
	cachetest.Conformance(t, func(t *testing.T) cache.Store {
		return cache.WithMetrics(cache.NewMemStore(), &cache.Metrics{})
	})
}

// newCAS serves a CASServer over backing and returns a client store.
func newCAS(t *testing.T, backing cache.Store) *cache.HTTPStore {
	t.Helper()
	srv := httptest.NewServer(http.StripPrefix("/v1/cas", cache.NewCASServer(backing)))
	t.Cleanup(srv.Close)
	return cache.NewHTTPStore(srv.URL+"/v1/cas", srv.Client())
}

func TestHTTPStoreOverMemConformance(t *testing.T) {
	cachetest.Conformance(t, func(t *testing.T) cache.Store {
		return newCAS(t, cache.NewMemStore())
	})
}

func TestHTTPStoreOverDirConformance(t *testing.T) {
	cachetest.Conformance(t, func(t *testing.T) cache.Store {
		ds, err := cache.NewDirStore(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		return newCAS(t, ds)
	})
}

// TestHTTPStoreGetCoalescing pins the shared-CAS half of request
// coalescing: concurrent Gets of one key cost one backend round-trip.
func TestHTTPStoreGetCoalescing(t *testing.T) {
	backing := cache.NewMemStore()
	key := cache.Key("coalesce", "k")
	backing.Put(key, []byte("payload"))

	var backendGets atomic.Int64
	gate := make(chan struct{})
	cas := cache.NewCASServer(backing)
	srv := httptest.NewServer(http.StripPrefix("/v1/cas",
		http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.Method == http.MethodGet {
				backendGets.Add(1)
				<-gate // hold every fetch until all clients have piled on
			}
			cas.ServeHTTP(w, r)
		})))
	defer srv.Close()
	hs := cache.NewHTTPStore(srv.URL+"/v1/cas", srv.Client())

	const n = 12
	results := make(chan bool, n)
	for i := 0; i < n; i++ {
		go func() {
			data, ok := hs.Get(key)
			results <- ok && string(data) == "payload"
		}()
	}
	// Wait until the leader's fetch is in flight and every follower
	// has attached to it (the leader itself counts as one waiter),
	// then release. CoalescedGets cannot be the wait condition here:
	// followers are only counted after the shared fetch completes,
	// which is exactly what the gate is holding.
	for backendGets.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	for hs.FlightWaiters(key) < n {
		time.Sleep(time.Millisecond)
	}
	close(gate)
	for i := 0; i < n; i++ {
		if !<-results {
			t.Fatal("coalesced Get returned wrong data")
		}
	}
	if got := backendGets.Load(); got != 1 {
		t.Fatalf("backend saw %d GETs for %d concurrent clients, want 1", got, n)
	}
	if got := hs.CoalescedGets(); got != n-1 {
		t.Fatalf("CoalescedGets = %d, want %d", got, n-1)
	}
}

// TestDirStoreTornWriteTolerance: whatever a crashed host leaves in the
// log — a half-written record, or bytes that were never a record — the
// store answers bytes-or-miss, never a crash, and what it does serve
// still decodes or fails cleanly.
func TestDirStoreTornWriteTolerance(t *testing.T) {
	dir := t.TempDir()
	s, err := cache.NewDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	key := cache.Key("torn", "entry")
	if err := s.Put(key, []byte("full entry content")); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "store.log")
	whole, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for name, content := range map[string][]byte{
		"cut mid-record":  whole[:len(whole)-5],
		"garbage":         []byte("\xff\xff\xff not a log \x00\x01"),
		"garbage at tail": append(append([]byte(nil), whole...), 0x7f, 0x7f, 1, 2, 3),
	} {
		if err := os.WriteFile(path, content, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := cache.NewDirStore(dir)
		if err != nil {
			t.Fatalf("%s: open: %v", name, err)
		}
		data, ok := s.Get(key)
		if ok && string(data) != "full entry content" {
			t.Fatalf("%s: served %q", name, data)
		}
		if ok != (name == "garbage at tail") {
			t.Fatalf("%s: served=%v", name, ok)
		}
		if _, err := cache.DecodeUnit(data); err == nil {
			t.Fatalf("%s: DecodeUnit accepted the bytes", name)
		}
	}
}
