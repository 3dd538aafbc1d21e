package fleet_test

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"repro/internal/cache"
	"repro/internal/fleet"
	"repro/mc"
)

// recordingStore notes every key written through it. It offers no
// batch methods, so cache.PutBatch arrives as one Put per entry.
type recordingStore struct {
	cache.Store
	mu   sync.Mutex
	keys []string
}

func (s *recordingStore) Put(key string, data []byte) error {
	s.mu.Lock()
	s.keys = append(s.keys, key)
	s.mu.Unlock()
	return s.Store.Put(key, data)
}

// derivable returns the unit keys an honest coordinator would ask for
// given exactly the content of req: one analyzer per checker — a single
// phase, whose barrier marks are the request's marks — with a runner
// that records the keys offered and then cancels the run.
func derivable(req *fleet.WorkRequest) map[string]bool {
	keys := map[string]bool{}
	for _, src := range req.Checkers {
		ctx, cancel := context.WithCancel(context.Background())
		a := mc.NewAnalyzer()
		a.Configure(mc.RunConfig{Options: &req.Options, Jobs: 1, CacheStore: cache.NewMemStore(),
			UnitRunner: func(_ context.Context, run *mc.UnitRun) error {
				for _, job := range run.Jobs {
					keys[job.Key] = true
				}
				cancel()
				return nil
			}})
		if a.LoadChecker(src) == nil {
			for name, text := range req.Files {
				a.AddSource(name, text)
			}
			for _, ev := range req.Marks {
				a.MarkFunction(ev.Name, ev.Key)
			}
			a.RunContext(ctx)
		}
		cancel()
	}
	return keys
}

const fuzzTree = `void kfree(void *p);
int f(int *p) { kfree(p); return *p; }
int g(int *q) { return *q; }
`

// FuzzWorkRequest throws arbitrary bodies at /v1/work: the worker never
// panics, never answers 5xx, answers 400 to what is not JSON, and every
// key the store gains is a unit key derivable from the content sent —
// whatever keys the body asked for.
func FuzzWorkRequest(f *testing.F) {
	// The malformed seeds are the checked-in corpus (testdata/fuzz); the
	// two added here carry keys derived under the current key format.
	valid := suite{srcs: map[string]string{"a.c": fuzzTree}}.offered(f)[0]
	body, err := json.Marshal(valid)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(body)
	foreign := *valid
	foreign.Jobs = []mc.UnitJob{{Key: "00ff", Checker: 0}, {Key: valid.Jobs[0].Key, Checker: 7}, {Key: valid.Jobs[0].Key, Checker: -1}}
	body, _ = json.Marshal(&foreign)
	f.Add(body)

	f.Fuzz(func(t *testing.T, body []byte) {
		store := &recordingStore{Store: cache.NewMemStore()}
		rec := httptest.NewRecorder()
		fleet.NewWorker(store, 2).Handler().ServeHTTP(rec,
			httptest.NewRequest(http.MethodPost, "/v1/work", bytes.NewReader(body)))
		if rec.Code >= 500 {
			t.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
		var req fleet.WorkRequest
		if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
			if rec.Code != http.StatusBadRequest || len(store.keys) > 0 {
				t.Fatalf("undecodable body: status %d, %d keys stored", rec.Code, len(store.keys))
			}
			return
		}
		allowed := derivable(&req)
		for _, key := range store.keys {
			if !allowed[key] {
				t.Fatalf("store gained key %s, which the content sent does not derive", key)
			}
		}
	})
}
