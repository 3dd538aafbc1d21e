package cache

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestHTTPStoreOversizeIsMiss: a CAS that streams past the envelope
// bound without end (chunked, so no Content-Length gives it away) reads
// as a miss, from Get and from GetBatch alike — one code path, since Get
// is a one-key batch. An unbounded read would never return.
func TestHTTPStoreOversizeIsMiss(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, `{"entries":{"ab":"`)
		chunk := strings.Repeat("A", 512)
		for {
			if _, err := io.WriteString(w, chunk); err != nil {
				return // the client hung up
			}
			w.(http.Flusher).Flush()
		}
	}))
	defer srv.Close()
	s := NewHTTPStore(srv.URL, srv.Client())
	s.maxBlob = 1 << 10

	if data, ok := s.Get("ab"); ok {
		t.Fatalf("oversize blob was a hit (%d bytes)", len(data))
	}
	if got := s.GetBatch([]string{"ab"}); len(got) != 0 {
		t.Fatalf("oversize batch reply yielded %d entries", len(got))
	}
}
