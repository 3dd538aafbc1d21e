package server

// /v1/checkers handlers: the daemon face of the checker admission
// pipeline (DESIGN.md §14). Upload → validate → enable is the whole
// lifecycle of a machine-written checker; the analyze path reads the
// registry per run, so an enable here is live on the next request.

import (
	"encoding/json"
	"net/http"
	"time"

	"repro/internal/harness"
	"repro/internal/registry"
)

// CheckerJSON renders one registry entry. Enabled reports whether it
// is in the daemon's active set.
type CheckerJSON struct {
	ID      string          `json:"id"`
	Name    string          `json:"name"`
	Version int             `json:"version"`
	Lines   int             `json:"lines"`
	Status  string          `json:"status"`
	Enabled bool            `json:"enabled"`
	Verdict json.RawMessage `json:"verdict,omitempty"`
	Source  string          `json:"source,omitempty"`
}

func checkerJSON(e registry.Entry) CheckerJSON {
	return CheckerJSON{
		ID:      e.ID,
		Name:    e.Name,
		Version: e.Version,
		Lines:   e.Lines,
		Status:  e.Status,
		Enabled: e.Enabled,
		Verdict: e.Verdict,
	}
}

// UploadRequest is the POST /v1/checkers body.
type UploadRequest struct {
	Source string `json:"source"`
}

// handleCheckerUpload stores a checker version. 201 on a new version,
// 200 when this exact text was already stored (uploads are idempotent
// by content address), 400 when the source does not parse as metal.
func (s *Server) handleCheckerUpload(w http.ResponseWriter, r *http.Request) {
	var req UploadRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	if req.Source == "" {
		s.bumpFailures()
		writeError(w, http.StatusBadRequest, "bad_request",
			"empty checker source", `body must be {"source": "sm ...;"}`)
		return
	}
	e, created, err := s.cfg.Registry.Upload(req.Source)
	if err != nil {
		s.bumpFailures()
		writeError(w, http.StatusBadRequest, "checker_invalid",
			"checker rejected at upload", err.Error())
		return
	}
	status := http.StatusOK
	if created {
		status = http.StatusCreated
	}
	writeJSON(w, status, checkerJSON(e))
}

func (s *Server) handleCheckerList(w http.ResponseWriter, r *http.Request) {
	out := []CheckerJSON{}
	for _, e := range s.cfg.Registry.List() {
		out = append(out, checkerJSON(e))
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleCheckerGet(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	e, ok := s.cfg.Registry.Get(id)
	if !ok {
		writeError(w, http.StatusNotFound, "not_found", "no such checker", id)
		return
	}
	out := checkerJSON(e)
	if src, err := s.cfg.Registry.Source(id); err == nil {
		out.Source = src
	}
	writeJSON(w, http.StatusOK, out)
}

// handleCheckerValidate runs the admission harness on a stored
// checker. Validation is real analysis work, so it goes through the
// same admission as analyze: 429 + Retry-After when saturated, 503
// when RequestTimeout expires first (the entry keeps no verdict). The
// harness outcome — admitted or rejected, with z-score, kill-rate, and
// isolation counts — is stored on the entry and returned; a buggy
// checker is a structured rejection, never a daemon outage.
func (s *Server) handleCheckerValidate(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if _, ok := s.cfg.Registry.Get(id); !ok {
		writeError(w, http.StatusNotFound, "not_found", "no such checker", id)
		return
	}
	src, err := s.cfg.Registry.Source(id)
	if err != nil {
		s.bumpFailures()
		writeError(w, http.StatusInternalServerError, "internal",
			"checker source unreadable", err.Error())
		return
	}

	ctx, release, ok := s.admit(w, r.Context())
	if !ok {
		return
	}
	defer release()

	t0 := time.Now()
	hcfg := harness.DefaultConfig()
	hcfg.Jobs = s.cfg.Jobs
	v, err := harness.Validate(ctx, src, hcfg)
	if err != nil {
		s.runFailed(w, ctx, err, "validation_failed", "validation could not run")
		return
	}
	raw, err := json.Marshal(v)
	if err != nil {
		s.bumpFailures()
		writeError(w, http.StatusInternalServerError, "internal",
			"verdict encoding failed", err.Error())
		return
	}
	if err := s.cfg.Registry.SetVerdict(id, v.Admitted(), raw); err != nil {
		s.bumpFailures()
		writeError(w, http.StatusNotFound, "not_found",
			"checker vanished during validation", err.Error())
		return
	}
	s.mu.Lock()
	if v.Admitted() {
		s.validationsAdmitted++
	} else {
		s.validationsRejected++
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, struct {
		ID          string           `json:"id"`
		Status      string           `json:"status"`
		Verdict     *harness.Verdict `json:"verdict"`
		ElapsedNano int64            `json:"elapsed_nanos"`
	}{id, v.Status, v, time.Since(t0).Nanoseconds()})
}

// handleCheckerSwitch turns a checker on or off. Only admitted
// checkers can be enabled (409 otherwise); enabling one disables any
// other version of the same checker name, so an upgrade is one call.
// The change is live on the next analyze.
func (s *Server) handleCheckerSwitch(on bool) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		e, ok := s.cfg.Registry.Get(id)
		if !ok {
			writeError(w, http.StatusNotFound, "not_found", "no such checker", id)
			return
		}
		if err := s.cfg.Registry.SetEnabled(id, on); err != nil {
			if on {
				writeError(w, http.StatusConflict, "not_admitted",
					"checker is not admitted for enablement", err.Error())
			} else {
				writeError(w, http.StatusInternalServerError, "internal",
					"disable failed", err.Error())
			}
			return
		}
		e.Enabled = on
		writeJSON(w, http.StatusOK, checkerJSON(e))
	}
}

func (s *Server) handleCheckerDelete(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if _, ok := s.cfg.Registry.Get(id); !ok {
		writeError(w, http.StatusNotFound, "not_found", "no such checker", id)
		return
	}
	if err := s.cfg.Registry.Delete(id); err != nil {
		writeError(w, http.StatusInternalServerError, "internal",
			"delete failed", err.Error())
		return
	}
	writeJSON(w, http.StatusOK, struct {
		ID      string `json:"id"`
		Deleted bool   `json:"deleted"`
	}{id, true})
}
