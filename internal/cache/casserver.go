package cache

// CASServer serves the HTTPStore wire protocol over any Store — the
// server half of the shared CAS (DESIGN.md §15). A coordinator mounts
// it in front of its local store so workers share one content space;
// a dedicated blob host can serve a LogStore the same way. The handler
// is as dumb as the protocol: content addressing means no invalidation
// routes, no versions, no metadata — two batch operations on blobs
// under keys.

import (
	"encoding/json"
	"net/http"
	"strings"
)

// CASServer is the http.Handler; expose it with
// mux.Handle("/v1/cas/", http.StripPrefix("/v1/cas", h)).
type CASServer struct {
	store Store
}

// NewCASServer wraps a store in the blob protocol.
func NewCASServer(s Store) *CASServer { return &CASServer{store: s} }

// validKey accepts the hex SHA-256 shape Key produces — so in
// practice: non-empty, no separators, hex. Rejecting everything
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

// ServeHTTP handles POST <base>/?op=get|put; every other method or
// path is 405.
func (h *CASServer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost || strings.TrimPrefix(r.URL.Path, "/") != "" {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	body := http.MaxBytesReader(w, r.Body, MaxWireBody)
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
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(batchEnvelope{Entries: GetBatch(h.store, req.Keys)})
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
		if err := PutBatch(h.store, req.Entries); err != nil {
			http.Error(w, "batch put: "+err.Error(), http.StatusInternalServerError)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	default:
		http.Error(w, "unknown batch op", http.StatusBadRequest)
	}
}
