package fleet

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/mc"
)

// TestCoordinatorOversizeReplyIsTransportFailure: a worker whose reply
// streams past the bound without end is cut off at the bound and
// treated like a lost worker — the shard is re-posted once, then left
// to the local path. An unbounded read would never return.
func TestCoordinatorOversizeReplyIsTransportFailure(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		io.WriteString(w, `{"filled":1`)
		chunk := strings.Repeat("0", 512)
		for {
			if _, err := io.WriteString(w, chunk); err != nil {
				return // the coordinator hung up
			}
			w.(http.Flusher).Flush()
		}
	}))
	defer srv.Close()
	co := NewCoordinator(Config{Workers: []string{srv.URL}})
	defer co.Close()
	co.maxReply = 1 << 10

	run := &mc.UnitRun{Checkers: []string{"sm x;"}, Jobs: []mc.UnitJob{{Key: "00", Weight: 1}, {Key: "01", Weight: 2}}}
	if err := co.RunnerFor("")(context.Background(), run); err != nil {
		t.Fatal(err)
	}
	want := Stats{Dispatched: 2, LocalFallback: 2, Requeues: 1, Batches: 2, Workers: 1}
	if got := co.Stats(); got != want {
		t.Fatalf("stats %+v, want %+v", got, want)
	}
}
