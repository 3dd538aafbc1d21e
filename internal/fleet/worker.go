package fleet

// The fleet worker: an HTTP service that fills unit cache keys
// (DESIGN.md §15). A worker owns no analysis state beyond a small
// cache of built programs and the checkers compiled against them;
// everything it produces goes into the shared store, where any
// coordinator sharing the CAS replays it. Units run through
// mc.RunUnits, the coordinator's own executor (mc/unitrun.go has the
// argument for why no request or crash can poison the store).

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"

	"repro/internal/cache"
	"repro/internal/cc"
	"repro/mc"
)

// workerMaxTrees bounds the built-program cache: beyond this many
// distinct trees, the least recently used is evicted.
const workerMaxTrees = 4

// Worker serves the fleet job protocol over a shared store.
type Worker struct {
	cas cache.Store
	sem chan struct{} // one slot per running unit, across all requests

	mu    sync.Mutex
	trees []*workerTree // LRU, most recent last

	requests         atomic.Int64
	jobsRun          atomic.Int64
	jobsFilled       atomic.Int64
	treesBuilt       atomic.Int64
	treesReused      atomic.Int64
	checkersCompiled atomic.Int64
}

// workerTree is one built program (with the checkers compiled against
// it), constructed at most once per source set: concurrent requests for
// the same tree share the build through the once.
type workerTree struct {
	fp   string
	once sync.Once
	tree *mc.UnitTree
	err  error
}

// NewWorker creates a worker over the shared store. jobs bounds the
// units the worker runs at once; <= 0 means one at a time.
func NewWorker(cas cache.Store, jobs int) *Worker {
	if jobs <= 0 {
		jobs = 1
	}
	return &Worker{cas: cas, sem: make(chan struct{}, jobs)}
}

// Handler returns the worker's HTTP mux: POST /v1/work, GET
// /v1/healthz, GET /v1/stats.
func (w *Worker) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/work", w.handleWork)
	mux.HandleFunc("/v1/healthz", func(rw http.ResponseWriter, r *http.Request) {
		rw.Header().Set("Content-Type", "application/json")
		fmt.Fprintln(rw, `{"status":"ok","role":"worker"}`)
	})
	mux.HandleFunc("/v1/stats", func(rw http.ResponseWriter, r *http.Request) {
		rw.Header().Set("Content-Type", "application/json")
		json.NewEncoder(rw).Encode(w.Stats())
	})
	return mux
}

// Stats snapshots the worker counters.
func (w *Worker) Stats() WorkerStats {
	return WorkerStats{
		Requests:         w.requests.Load(),
		JobsRun:          w.jobsRun.Load(),
		JobsFilled:       w.jobsFilled.Load(),
		TreesBuilt:       w.treesBuilt.Load(),
		TreesReused:      w.treesReused.Load(),
		CheckersCompiled: w.checkersCompiled.Load(),
	}
}

func (w *Worker) handleWork(rw http.ResponseWriter, r *http.Request) {
	w.requests.Add(1)
	var req WorkRequest
	body := http.MaxBytesReader(rw, r.Body, cache.MaxWireBody)
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		http.Error(rw, "bad request: "+err.Error(), http.StatusBadRequest)
		return
	}
	wt := w.tree(req.Files)
	if wt.err != nil {
		http.Error(rw, "build: "+wt.err.Error(), http.StatusUnprocessableEntity)
		return
	}

	w.jobsRun.Add(int64(len(req.Jobs)))
	puts, compiled := wt.tree.RunUnits(r.Context(), w.sem, &req)
	w.checkersCompiled.Add(int64(compiled))

	// Commit every record in ONE batched store write before responding
	// — the coordinator re-probes on response, so the write must land
	// first. If the store rejects the batch nothing is reported filled.
	var resp WorkResponse
	if len(puts) > 0 && cache.PutBatch(w.cas, puts) == nil {
		resp.Filled = int64(len(puts))
		w.jobsFilled.Add(resp.Filled)
	}
	rw.Header().Set("Content-Type", "application/json")
	json.NewEncoder(rw).Encode(resp)
}

// tree returns the built program for a source set, building (and
// caching) it on first sight. The cache key is computed here from the
// sources themselves, so a request cannot alias another tree. The
// worker parses the sources it was sent (cc.ParseFiles, the
// coordinator's own pass 1).
func (w *Worker) tree(srcs map[string]string) *workerTree {
	canon, _ := json.Marshal(srcs) // keys sorted: one encoding per source set
	fp := cache.Key(string(canon))

	w.mu.Lock()
	var t *workerTree
	for i, have := range w.trees {
		if have.fp == fp {
			t = have
			w.trees = append(w.trees[:i], w.trees[i+1:]...) // re-appended below
			w.treesReused.Add(1)
			break
		}
	}
	if t == nil {
		t = &workerTree{fp: fp}
	}
	if w.trees = append(w.trees, t); len(w.trees) > workerMaxTrees {
		w.trees[0] = nil // let the evicted program go with its slot
		w.trees = w.trees[1:]
	}
	w.mu.Unlock()
	t.once.Do(func() {
		w.treesBuilt.Add(1)
		files, err := cc.ParseFiles(srcs, cap(w.sem))
		if t.err = err; err == nil {
			t.tree = mc.NewUnitTree(files)
		}
	})
	return t
}
