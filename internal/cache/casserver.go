package cache

// CASHandler serves the HTTPStore wire protocol over any Store — the
// server half of the shared CAS (DESIGN.md §15). A coordinator mounts
// it in front of its local store so workers share one content space;
// a dedicated blob host can serve a LogStore the same way. The handler
// is as dumb as the protocol: content addressing means no invalidation
// routes, no versions, no metadata — just blobs under keys.

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"sync/atomic"
)

// casMaxBlob bounds a single uploaded blob (and, transitively, each
// batch entry): unit entries for large trees run to a few MB; 256 MiB
// leaves two orders of magnitude of headroom while keeping a
// misbehaving client from exhausting the host.
const casMaxBlob = 256 << 20

// CASCounters reports a handler's traffic (all atomic).
type CASCounters struct {
	Gets      atomic.Int64
	Hits      atomic.Int64
	Puts      atomic.Int64
	BatchGets atomic.Int64
	BatchPuts atomic.Int64
}

// CASServer is the http.Handler; expose it with
// mux.Handle("/v1/cas/", http.StripPrefix("/v1/cas", h)).
type CASServer struct {
	store Store
	// Counters tallies traffic for the host's stats surface.
	Counters CASCounters
}

// NewCASServer wraps a store in the blob protocol.
func NewCASServer(s Store) *CASServer { return &CASServer{store: s} }

// validKey accepts the hex SHA-256 shape Key produces, plus the few
// structured keys (manifest etc.) that are themselves Key outputs —
// so in practice: non-empty, no separators, hex. Rejecting everything
// else keeps arbitrary client strings out of whatever backs the store
// (a key was once a file name, and may be again behind another backend).
func validKey(key string) bool {
	if key == "" || len(key) > 128 {
		return false
	}
	for _, c := range key {
		switch {
		case c >= '0' && c <= '9', c >= 'a' && c <= 'f', c >= 'A' && c <= 'F':
		default:
			return false
		}
	}
	return true
}

func (h *CASServer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	key := strings.TrimPrefix(r.URL.Path, "/")
	switch {
	case r.Method == http.MethodPost && key == "":
		h.serveBatch(w, r)
	case r.Method == http.MethodGet || r.Method == http.MethodHead:
		if !validKey(key) {
			http.Error(w, "bad key", http.StatusBadRequest)
			return
		}
		h.Counters.Gets.Add(1)
		data, ok := h.store.Get(key)
		if !ok {
			http.NotFound(w, r)
			return
		}
		h.Counters.Hits.Add(1)
		w.Header().Set("Content-Type", "application/octet-stream")
		if r.Method == http.MethodHead {
			w.WriteHeader(http.StatusOK)
			return
		}
		w.Write(data)
	case r.Method == http.MethodPut:
		if !validKey(key) {
			http.Error(w, "bad key", http.StatusBadRequest)
			return
		}
		data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, casMaxBlob))
		if err != nil {
			http.Error(w, "read body: "+err.Error(), http.StatusBadRequest)
			return
		}
		h.Counters.Puts.Add(1)
		if err := h.store.Put(key, data); err != nil {
			http.Error(w, "put: "+err.Error(), http.StatusInternalServerError)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	default:
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
	}
}

// serveBatch handles POST <base>?op=get|put.
func (h *CASServer) serveBatch(w http.ResponseWriter, r *http.Request) {
	body := http.MaxBytesReader(w, r.Body, casMaxBlob)
	switch r.URL.Query().Get("op") {
	case "get":
		var req batchGetRequest
		if err := json.NewDecoder(body).Decode(&req); err != nil {
			http.Error(w, "bad batch-get body: "+err.Error(), http.StatusBadRequest)
			return
		}
		for _, k := range req.Keys {
			if !validKey(k) {
				http.Error(w, "bad key in batch", http.StatusBadRequest)
				return
			}
		}
		h.Counters.BatchGets.Add(1)
		h.Counters.Gets.Add(int64(len(req.Keys)))
		found := GetBatch(h.store, req.Keys)
		h.Counters.Hits.Add(int64(len(found)))
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(batchEnvelope{Entries: found})
	case "put":
		var req batchEnvelope
		if err := json.NewDecoder(body).Decode(&req); err != nil {
			http.Error(w, "bad batch-put body: "+err.Error(), http.StatusBadRequest)
			return
		}
		for k := range req.Entries {
			if !validKey(k) {
				http.Error(w, "bad key in batch", http.StatusBadRequest)
				return
			}
		}
		h.Counters.BatchPuts.Add(1)
		h.Counters.Puts.Add(int64(len(req.Entries)))
		if err := PutBatch(h.store, req.Entries); err != nil {
			http.Error(w, "batch put: "+err.Error(), http.StatusInternalServerError)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	default:
		http.Error(w, "unknown batch op", http.StatusBadRequest)
	}
}
