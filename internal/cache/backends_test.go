package cache_test

// Backend conformance (DESIGN.md §15): every Store backend — memory,
// dir, HTTP-over-memory, HTTP-over-dir, and the metrics wrapper —
// must pass the one shared suite, under -race; the disk store also
// passes the reopen suite (DESIGN.md §8). The HTTP cases spin a
// real CASServer over a loopback listener, so the wire encoding
// (base64 batch envelopes, one-key batches for Get and Put) is covered
// too.

import (
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

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

// TestCASServerServesBatchesOnly: the handler speaks POST /?op=get|put
// and nothing else. The single-key routes are gone (405), and a key
// that is not hex is refused in either batch before the store sees it.
func TestCASServerServesBatchesOnly(t *testing.T) {
	backing := cache.NewMemStore()
	srv := httptest.NewServer(http.StripPrefix("/v1/cas", cache.NewCASServer(backing)))
	defer srv.Close()
	key := cache.Key("cas", "routes")
	backing.Put(key, []byte("blob"))

	do := func(method, path, body string) int {
		t.Helper()
		req, err := http.NewRequest(method, srv.URL+"/v1/cas"+path, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := srv.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	for _, method := range []string{http.MethodGet, http.MethodHead, http.MethodPut} {
		if got := do(method, "/"+key, "blob"); got != http.StatusMethodNotAllowed {
			t.Errorf("%s /<key>: status %d, want 405", method, got)
		}
	}
	for _, tc := range []struct{ op, body string }{
		{"get", `{"keys":["../etc/passwd"]}`},
		{"put", `{"entries":{"not-hex":"YmxvYg=="}}`},
	} {
		if got := do(http.MethodPost, "/?op="+tc.op, tc.body); got != http.StatusBadRequest {
			t.Errorf("batch %s with a non-hex key: status %d, want 400", tc.op, got)
		}
	}
	if backing.Len() != 1 {
		t.Errorf("the store holds %d entries after refused requests, want 1", backing.Len())
	}
	if got := do(http.MethodPost, "/?op=get", `{"keys":["`+key+`"]}`); got != http.StatusOK {
		t.Errorf("batch get of a valid key: status %d, want 200", got)
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
