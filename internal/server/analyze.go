package server

import (
	"bytes"
	"context"
	"maps"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/cache"
	"repro/internal/registry"
	"repro/mc"
)

// AnalyzeRequest is the POST /v1/analyze body. Files merge into the
// resident tree (same name replaces), Remove drops files, Reset
// clears the tree first. An empty request re-analyzes the resident
// tree as-is.
type AnalyzeRequest struct {
	Files  map[string]string `json:"files,omitempty"`
	Remove []string          `json:"remove,omitempty"`
	Reset  bool              `json:"reset,omitempty"`
}

// AnalyzeResponse summarizes one analysis run.
type AnalyzeResponse struct {
	Files       int           `json:"files"`
	Reports     int           `json:"reports"`
	Ranked      []ReportJSON  `json:"ranked"`
	Incr        *mc.IncrStats `json:"incr"`
	ElapsedNano int64         `json:"elapsed_nanos"`
	// Governance (DESIGN.md §9): a run can succeed with partial
	// results — checkers that panicked, or traversals a budget or cap cut.
	Failures     []*mc.CheckerFailure `json:"failures,omitempty"`
	Degraded     bool                 `json:"degraded,omitempty"`
	Degradations []mc.DegradeEvent    `json:"degradations,omitempty"`
	// What this run retired (DESIGN.md §12).
	Spill *mc.SpillStats `json:"spill,omitempty"`
}

// newAnalyzer assembles a fresh analyzer over the given tree, the
// resident store and the given read of the registry's enabled set.
// Analyzer construction is cheap: the bundled and registry checkers
// are parsed already and shared, the heavy state that outlives a run
// (unit results) lives in the store, and every run parses the tree it
// is given. Loading the enabled set per run IS the hot-reload: an
// enable/disable between requests takes effect on the next analyze
// with no restart — and because unit cache keys fingerprint checker
// text, a changed set invalidates only its own units.
func (s *Server) newAnalyzer(tree map[string]string, enabled []registry.EnabledSource) (*mc.Analyzer, error) {
	a := mc.NewAnalyzer()
	err := a.Configure(mc.RunConfig{
		Options:    s.cfg.Options,
		Jobs:       s.cfg.Jobs,
		CacheStore: s.cfg.Store,
		UnitRunner: s.unitRunner(),
	})
	if err != nil {
		return nil, err
	}
	for _, name := range s.cfg.Checkers {
		if err := a.LoadBundledChecker(name); err != nil {
			return nil, err
		}
	}
	// CheckerSources are still parsed per run: New cannot return the
	// error a parse once at startup would need.
	for _, src := range s.cfg.CheckerSources {
		if err := a.LoadChecker(src); err != nil {
			return nil, err
		}
	}
	for _, es := range enabled {
		a.AddChecker(es.Checker)
	}
	for name, src := range tree {
		a.AddSource(name, src)
	}
	return a, nil
}

// CheckCheckers loads the daemon's own checkers (Config.Checkers and
// CheckerSources) as every analyze does and returns the error each
// analyze would meet, so the daemon can refuse to start instead.
func (s *Server) CheckCheckers() error {
	_, err := s.newAnalyzer(nil, nil)
	return err
}

// setKey fingerprints one read of the enabled set: its IDs in the
// registry's deterministic order.
func setKey(enabled []registry.EnabledSource) string {
	ids := make([]string, len(enabled))
	for i, es := range enabled {
		ids[i] = es.Entry.ID
	}
	return strings.Join(ids, ",")
}

func (s *Server) handleAnalyze(w http.ResponseWriter, r *http.Request) {
	var req AnalyzeRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	// The request reads the registry once: its key, the checkers its
	// run loads and the reload count all see this set, so an enable
	// that lands mid-run is charged to the next run, which loads it.
	enabled, err := s.cfg.Registry.Enabled()
	if err != nil {
		s.fail(w, http.StatusInternalServerError, "internal",
			"registry unreadable", err.Error())
		return
	}

	// Request coalescing (DESIGN.md §15): concurrent requests that
	// denote the same analysis — same resulting tree and active
	// checker set — share one run and one response. Sound
	// because the patch is idempotent: applying it once on behalf of
	// everyone commits the same resident tree. The run executes under
	// the flight's call-scoped context, so one impatient client cannot
	// cancel the work for the rest.
	key := s.analyzeKey(enabled, &req)
	out, shared, err := s.flight.Do(r.Context(), key, func(ctx context.Context) *bufferedResponse {
		br := &bufferedResponse{header: http.Header{}, status: http.StatusOK}
		s.runAnalyze(br, ctx, enabled, &req)
		return br
	})
	if err != nil {
		// This caller gave up before the shared run finished; the run
		// itself continues for (or was completed by) the others.
		writeError(w, http.StatusServiceUnavailable, "timeout",
			"request abandoned before the coalesced analysis finished", err.Error())
		return
	}
	if shared {
		s.add(&s.coalescedAnalyzes, 1)
	}
	out.replay(w)
}

// analyzeKey fingerprints the analysis a request denotes: the resident
// tree it would commit (base tree plus canonical patch) and the
// active checker set it read. Content-addressed like the cache itself,
// so two requests coalesce exactly when their runs would be
// indistinguishable. Each file's name and source are key parts of
// their own, hashed where they lie; the patch's file count separates
// the patch from the base.
func (s *Server) analyzeKey(enabled []registry.EnabledSource, req *AnalyzeRequest) string {
	removes := append([]string(nil), req.Remove...)
	sort.Strings(removes)
	parts := []string{"analyze", setKey(enabled), strconv.FormatBool(req.Reset),
		strings.Join(removes, "\x01"), strconv.Itoa(len(req.Files))}
	parts = appendFiles(parts, req.Files)
	if !req.Reset {
		s.mu.Lock()
		parts = appendFiles(parts, s.srcs)
		s.mu.Unlock()
	}
	return cache.Key(parts...)
}

// appendFiles appends a tree or a patch to key parts: each file's name,
// then its source, in name order.
func appendFiles(parts []string, files map[string]string) []string {
	names := make([]string, 0, len(files))
	for name := range files {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		parts = append(parts, name, files[name])
	}
	return parts
}

// runAnalyze is the admitted analysis path; it writes exactly one
// response to w (a bufferedResponse when the request came through the
// coalescing layer).
func (s *Server) runAnalyze(w http.ResponseWriter, ctx context.Context, enabled []registry.EnabledSource, req *AnalyzeRequest) {
	ctx, release, ok := s.admit(w, ctx)
	if !ok {
		return
	}
	defer release()

	// Serialize run-and-commit: snapshot the tree, run outside mu (the
	// analysis is the long part), commit only on success so a request
	// with unparseable C — or one that timed out — doesn't poison the
	// resident tree.
	s.runMu.Lock()
	defer s.runMu.Unlock()

	next := map[string]string{}
	if !req.Reset {
		s.mu.Lock()
		next = maps.Clone(s.srcs)
		s.mu.Unlock()
	}
	for _, name := range req.Remove {
		delete(next, name)
	}
	maps.Copy(next, req.Files)
	if len(next) == 0 {
		s.fail(w, http.StatusBadRequest, "bad_request",
			"no sources resident", "")
		return
	}

	a, err := s.newAnalyzer(next, enabled)
	if err != nil {
		s.fail(w, http.StatusInternalServerError, "internal",
			"analyzer setup failed", err.Error())
		return
	}
	t0 := time.Now()
	res, err := a.RunContext(ctx)
	if err != nil {
		s.runFailed(w, ctx, err, "analysis_failed", "analysis failed")
		return
	}

	s.mu.Lock()
	set := setKey(enabled)
	if s.analyses > 0 && set != s.loadedSet {
		s.checkerReloads++
	}
	s.loadedSet = set
	s.analyses++
	s.checkerFailures += int64(len(res.Failures))
	if res.Degraded {
		s.degradedRuns++
	}
	s.spillEvictions += res.Spill.Evictions
	s.astsReleased += res.Spill.ASTsReleased
	if in := res.Incr; in != nil {
		s.cacheHits += in.CacheHits
		s.cacheMisses += in.CacheMisses
		s.cachePuts += in.CachePuts
		s.cachePutErrors += in.CachePutErrors
	}
	s.srcs = next
	s.last = res
	files := len(s.srcs)
	s.mu.Unlock()

	// A committed result never changes again, so it renders unlocked.
	// ElapsedNano is read before the reports render.
	writeJSON(w, http.StatusOK, AnalyzeResponse{
		Files:        files,
		Reports:      len(res.Reports),
		ElapsedNano:  time.Since(t0).Nanoseconds(),
		Ranked:       appendReportsJSON(nil, res.Ranked()),
		Incr:         res.Incr,
		Failures:     res.Failures,
		Degraded:     res.Degraded,
		Degradations: res.Degradations,
		Spill:        res.Spill,
	})
}

// bufferedResponse captures one handler's full response — status,
// headers, body — so the coalescing layer can replay it verbatim to
// every caller that shared the run.
type bufferedResponse struct {
	header http.Header
	status int
	body   bytes.Buffer
}

func (b *bufferedResponse) Header() http.Header         { return b.header }
func (b *bufferedResponse) WriteHeader(code int)        { b.status = code }
func (b *bufferedResponse) Write(p []byte) (int, error) { return b.body.Write(p) }

// replay copies the captured response onto a real writer.
func (b *bufferedResponse) replay(w http.ResponseWriter) {
	for k, vs := range b.header {
		for _, v := range vs {
			w.Header().Add(k, v)
		}
	}
	w.WriteHeader(b.status)
	w.Write(b.body.Bytes())
}
