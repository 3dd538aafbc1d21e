// Package server is the xgccd analysis daemon: a long-running HTTP
// service that keeps sources and the incremental analysis cache
// resident across requests (DESIGN.md §8). Clients push file edits
// with POST /v1/analyze; unchanged work replays from the resident
// store, so steady-state requests cost roughly the dirty closure of
// the edit, not the whole tree.
//
// The HTTP surface is versioned under /v1/ (DESIGN.md §9; the full
// route table lives in DESIGN.md §14):
//
//	POST   /v1/analyze  {"files": {"a.c": "..."}, "remove": [], "reset": false}
//	GET    /v1/reports  ?rank=generic|z  ?format=json|text
//	GET    /v1/stats
//	GET    /v1/metrics  (Prometheus text format)
//	POST   /v1/checkers                {"source": "sm ...;"}
//	GET    /v1/checkers
//	GET    /v1/checkers/{id}
//	POST   /v1/checkers/{id}/validate
//	POST   /v1/checkers/{id}/enable    ?tenant=...
//	POST   /v1/checkers/{id}/disable   ?tenant=...
//	DELETE /v1/checkers/{id}
//
// The checker routes are the admission pipeline (DESIGN.md §14):
// upload stores a version in the registry, validate runs the harness
// and attaches a verdict, enable switches a tenant's active set — the
// next analyze run picks it up without a restart or losing the
// resident tree, and unchanged checkers replay byte-identically
// because cache keys fingerprint checker text.
//
// Every route lives under /v1/; anything else, the pre-v1 unversioned
// paths included, gets the enveloped 404. Every error response is a
// uniform JSON envelope {"code": ..., "message": ..., "details": ...}.
//
// Resource governance: at most Config.MaxInFlight analyze and validate
// requests are admitted at once (excess gets 429 "overloaded"), each
// admitted run is bounded by Config.RequestTimeout (503 "timeout" on
// expiry, with the resident tree rolled back), and
// Config.Options.Budgets bounds each traversal inside a run.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/cache"
	"repro/internal/fleet"
	"repro/internal/registry"
	"repro/internal/report"
	"repro/internal/singleflight"
	"repro/mc"
)

// Config fixes the analysis configuration for the daemon's lifetime;
// per-request configuration would defeat the cache (every option is
// part of the cache key).
type Config struct {
	// Bundled checker names to load (default: free, lock, null).
	Checkers []string
	// Extra checkers given as metal source text.
	CheckerSources []string
	// Engine options, traversal budgets included; nil means
	// mc.DefaultOptions().
	Options *mc.Options
	// Jobs is the analysis parallelism; 0 = GOMAXPROCS.
	Jobs int
	// Store is the resident cache; nil = a fresh in-memory store.
	Store cache.Store
	// MaxInFlight bounds concurrently admitted analyze and validate
	// requests; excess requests are rejected with 429. 0 means
	// DefaultMaxInFlight.
	MaxInFlight int
	// RequestTimeout bounds each admitted run, analysis or validation;
	// an expired run returns 503 and commits nothing. 0 means unbounded.
	RequestTimeout time.Duration
	// Registry is the versioned checker inventory backing the
	// /v1/checkers routes (DESIGN.md §14). Nil gets a fresh memory-only
	// registry, so the routes always work; pass registry.Open(dir) to
	// persist uploads and enable state across restarts.
	Registry *registry.Registry
	// Fleet, when non-nil, shards each run's cache-miss units over
	// the coordinator's workers (DESIGN.md §15) and mounts the store at
	// /v1/cas/, so the workers (and sibling coordinators) read and fill
	// it over HTTP. Nil keeps every unit local — the single-process
	// mode, byte-identical either way.
	Fleet *fleet.Coordinator
}

// DefaultMaxInFlight is the admission bound when Config.MaxInFlight
// is zero.
const DefaultMaxInFlight = 4

// maxRequestBody bounds every JSON request body the daemon decodes (a
// source tree or a checker): the bound a fleet worker puts on the same
// tree. Beyond it the request gets 413 payload_too_large.
const maxRequestBody = 256 << 20

// Server is the daemon state. Mutable state lives behind mu: the
// source tree, the last result, and cumulative counters. runMu
// serializes the run-and-commit section so concurrent analyze
// requests cannot interleave tree commits; sem is the admission
// semaphore in front of it. The store is internally synchronized and
// shared across requests — that is the residency.
type Server struct {
	cfg     Config
	store   cache.Store
	sem     chan struct{}
	runMu   sync.Mutex
	maxBody int64 // maxRequestBody; tests shrink it

	// flight coalesces concurrent identical analyze requests: K posts
	// that denote the same (tree, patch, tenant, checker set) share one
	// analysis and one response (DESIGN.md §15). Coalescing sits in
	// front of admission, so a burst of duplicates costs one semaphore
	// slot.
	flight singleflight.Group[*bufferedResponse]

	// testRunHook, when set, runs once a request is admitted, under its
	// deadline. Tests use it to hold a run in flight (backpressure) or
	// to wait out the request deadline.
	testRunHook func(context.Context)

	mu              sync.Mutex
	srcs            map[string]string
	last            *mc.Result
	requests        int64
	analyses        int64
	failures        int64
	rejected        int64
	timeouts        int64
	checkerFailures int64
	degradedRuns    int64
	inflight        int64
	// Cumulative retirement (DESIGN.md §12) and store-traffic counters
	// across all runs; every run has a fresh analyzer, so the per-run
	// figures in last.Incr fall between scrapes and these do not.
	spillEvictions int64
	astsReleased   int64
	cacheHits      int64
	cacheMisses    int64
	cachePuts      int64
	cachePutErrors int64
	// Checker-platform counters (DESIGN.md §14): hot-reloads observed
	// on the analyze path and validation outcomes. lastEnabled tracks
	// each tenant's active-set fingerprint so a changed set on the next
	// run counts as exactly one reload.
	checkerReloads      int64
	validationsAdmitted int64
	validationsRejected int64
	lastEnabled         map[string]string
	// coalescedAnalyzes counts analyze requests that shared another
	// request's in-flight run instead of starting their own.
	coalescedAnalyzes int64
}

// New builds a daemon from the configuration.
func New(cfg Config) *Server {
	if len(cfg.Checkers) == 0 && len(cfg.CheckerSources) == 0 {
		cfg.Checkers = []string{"free", "lock", "null"}
	}
	if cfg.MaxInFlight <= 0 {
		cfg.MaxInFlight = DefaultMaxInFlight
	}
	store := cfg.Store
	if store == nil {
		store = cache.NewMemStore()
	}
	if cfg.Registry == nil {
		cfg.Registry, _ = registry.Open("") // memory-only never fails
	}
	if cfg.Options == nil {
		opts := mc.DefaultOptions()
		cfg.Options = &opts
	}
	return &Server{
		cfg:         cfg,
		store:       store,
		sem:         make(chan struct{}, cfg.MaxInFlight),
		srcs:        map[string]string{},
		lastEnabled: map[string]string{},
		maxBody:     maxRequestBody,
	}
}

// Close does nothing: a Server holds nothing to release. It stays only
// because the frozen benchmark/workloads.go:175 calls it.
func (s *Server) Close() {}

// retryAfterSeconds derives the 429 Retry-After hint from the
// per-request timeout and the current admitted depth: every admitted
// run is bounded by d, so with n in flight the earliest slot is
// expected to free within about d/n — ceil'd to whole seconds with a
// floor of one, and a bare 1 when runs are unbounded (no basis for a
// better estimate).
func retryAfterSeconds(d time.Duration, inflight int64) int {
	if d <= 0 {
		return 1
	}
	if inflight < 1 {
		inflight = 1
	}
	per := d / time.Duration(inflight)
	secs := int((per + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return secs
}

// newAnalyzer assembles a fresh analyzer over the given tree and the
// resident store for one tenant. Analyzer construction is cheap; the
// heavy state that outlives a run (unit results) lives in the store,
// and every run parses the tree it is given. The
// registry read here IS the hot-reload: every run loads the tenant's
// currently enabled checkers, so an enable/disable between requests
// takes effect on the next analyze with no restart — and because unit
// cache keys fingerprint checker text, a changed set invalidates only
// its own units.
func (s *Server) newAnalyzer(tree map[string]string, tenant string) (*mc.Analyzer, error) {
	a := mc.NewAnalyzer()
	cfg := mc.RunConfig{
		Options:    s.cfg.Options,
		Jobs:       s.cfg.Jobs,
		CacheStore: s.store,
	}
	if s.cfg.Fleet != nil {
		cfg.UnitRunner = s.cfg.Fleet.RunnerFor(tenant)
	}
	if err := a.Configure(cfg); err != nil {
		return nil, err
	}
	for _, name := range s.cfg.Checkers {
		if err := a.LoadBundledChecker(name); err != nil {
			return nil, err
		}
	}
	for _, src := range s.cfg.CheckerSources {
		if err := a.LoadChecker(src); err != nil {
			return nil, err
		}
	}
	enabled, err := s.cfg.Registry.Enabled(tenant)
	if err != nil {
		return nil, err
	}
	for _, es := range enabled {
		if err := a.LoadChecker(es.Source); err != nil {
			return nil, fmt.Errorf("registry checker %s: %w", es.Entry.ID, err)
		}
	}
	for name, src := range tree {
		a.AddSource(name, src)
	}
	return a, nil
}

// noteReload compares the tenant's active checker set against the one
// its previous analyze ran with, counting one hot-reload per change.
// Called with s.mu held.
func (s *Server) noteReloadLocked(tenant string) {
	key := strings.Join(s.cfg.Registry.EnabledIDs(tenant), ",")
	if prev, ok := s.lastEnabled[tenant]; ok && prev != key {
		s.checkerReloads++
	}
	s.lastEnabled[tenant] = key
}

// tenantOf extracts the request's tenant: the "tenant" query
// parameter, then the X-Tenant header, then the default tenant.
func tenantOf(r *http.Request) string {
	if t := r.URL.Query().Get("tenant"); t != "" {
		return t
	}
	if t := r.Header.Get("X-Tenant"); t != "" {
		return t
	}
	return registry.DefaultTenant
}

// ErrorEnvelope is the uniform error body every endpoint returns on
// failure (DESIGN.md §9).
type ErrorEnvelope struct {
	Code    string `json:"code"`
	Message string `json:"message"`
	Details string `json:"details,omitempty"`
}

// decodeBody decodes the request's JSON body into v, reading at most
// maxBody bytes of it; an empty body leaves v untouched. On failure it
// answers the request (413 or 400) and reports false.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	if r.Body == nil {
		return true
	}
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.maxBody)).Decode(v)
	if err == nil || errors.Is(err, io.EOF) {
		return true
	}
	s.bumpFailures()
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		writeError(w, http.StatusRequestEntityTooLarge, "payload_too_large",
			"request body too large", fmt.Sprintf("limit is %d bytes", tooBig.Limit))
	} else {
		writeError(w, http.StatusBadRequest, "bad_request",
			"malformed JSON body", err.Error())
	}
	return false
}

func writeError(w http.ResponseWriter, status int, code, message, details string) {
	writeJSON(w, status, ErrorEnvelope{Code: code, Message: message, Details: details})
}

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

// ReportJSON is one rendered report.
type ReportJSON struct {
	Pos     string `json:"pos"`
	Checker string `json:"checker"`
	Rule    string `json:"rule,omitempty"`
	Func    string `json:"func"`
	Class   string `json:"class,omitempty"`
	Msg     string `json:"msg"`
	Text    string `json:"text"`
}

func reportJSON(r *report.Report) ReportJSON {
	return ReportJSON{
		Pos:     r.Pos.String(),
		Checker: r.Checker,
		Rule:    r.Rule,
		Func:    r.Func,
		Class:   string(r.Class),
		Msg:     r.Msg,
		Text:    r.String(),
	}
}

// Handler returns the daemon's HTTP handler: the /v1/ surface
// (including the /v1/checkers admission pipeline) and an enveloped 404
// for everything else.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	// api registers a route that counts in requests.
	api := func(pattern string, h http.HandlerFunc) {
		mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
			s.mu.Lock()
			s.requests++
			s.mu.Unlock()
			h(w, r)
		})
	}
	api("POST /v1/analyze", s.handleAnalyze)
	api("GET /v1/reports", s.handleReports)
	api("GET /v1/stats", s.handleStats)
	api("GET /v1/metrics", s.handleMetrics)
	api("POST /v1/checkers", s.handleCheckerUpload)
	api("GET /v1/checkers", s.handleCheckerList)
	api("GET /v1/checkers/{id}", s.handleCheckerGet)
	api("POST /v1/checkers/{id}/validate", s.handleCheckerValidate)
	api("POST /v1/checkers/{id}/enable", s.handleCheckerEnable)
	api("POST /v1/checkers/{id}/disable", s.handleCheckerDisable)
	api("DELETE /v1/checkers/{id}", s.handleCheckerDelete)
	// Any other method on these paths, and an unknown subpath under
	// /v1/checkers/, would otherwise get the mux's plain-text 405; keep
	// the enveloped surface uniform. A GET pattern also serves HEAD, so
	// the HEAD rows keep the 405 these three routes always gave it.
	for _, path := range []string{"/v1/analyze", "/v1/reports", "/v1/stats", "/v1/metrics", "/v1/checkers", "/v1/checkers/",
		"HEAD /v1/reports", "HEAD /v1/stats", "HEAD /v1/metrics"} {
		api(path, func(w http.ResponseWriter, r *http.Request) {
			writeError(w, http.StatusMethodNotAllowed, "method_not_allowed",
				"method not supported on this route", r.Method+" "+r.URL.Path)
		})
	}
	api("/", func(w http.ResponseWriter, r *http.Request) {
		writeError(w, http.StatusNotFound, "not_found", "unknown path", r.URL.Path)
	})
	// Liveness probe, shaped like the fleet worker's so one health
	// check covers every role; the role field tells them apart.
	mux.HandleFunc("GET /v1/healthz", func(w http.ResponseWriter, r *http.Request) {
		role := "daemon"
		if s.cfg.Fleet != nil {
			role = "coordinator"
		}
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, "{\"status\":\"ok\",\"role\":%q}\n", role)
	})
	if s.cfg.Fleet != nil {
		// The shared CAS surface (DESIGN.md §15): fleet workers and
		// sibling coordinators read and fill the same store the daemon
		// analyzes against. Content-addressed keys make this safe —
		// every write is a complete computation under its own name.
		cas := http.StripPrefix("/v1/cas", cache.NewCASServer(s.store))
		mux.Handle("/v1/cas/", cas)
		// Exact-path registration too: without it ServeMux 301s a
		// batch POST to /v1/cas, and Go clients rewrite a redirected
		// POST into a GET.
		mux.Handle("/v1/cas", cas)
	}
	return mux
}

func (s *Server) handleAnalyze(w http.ResponseWriter, r *http.Request) {
	tenant := tenantOf(r)
	var req AnalyzeRequest
	if !s.decodeBody(w, r, &req) {
		return
	}

	// Request coalescing (DESIGN.md §15): concurrent requests that
	// denote the same analysis — same resulting tree, tenant, and
	// active checker set — share one run and one response. Sound
	// because the patch is idempotent: applying it once on behalf of
	// everyone commits the same resident tree. The run executes under
	// the flight's call-scoped context, so one impatient client cannot
	// cancel the work for the rest.
	key := s.analyzeKey(tenant, &req)
	out, shared, err := s.flight.Do(r.Context(), key, func(ctx context.Context) *bufferedResponse {
		br := newBufferedResponse()
		s.runAnalyze(br, ctx, tenant, &req)
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
		s.mu.Lock()
		s.coalescedAnalyzes++
		s.mu.Unlock()
	}
	out.replay(w)
}

// analyzeKey fingerprints the analysis a request denotes: the resident
// tree it would commit (base tree plus canonical patch), the tenant,
// and the tenant's active checker set. Content-addressed like the
// cache itself, so two requests coalesce exactly when their runs would
// be indistinguishable.
func (s *Server) analyzeKey(tenant string, req *AnalyzeRequest) string {
	var base []string
	if !req.Reset {
		s.mu.Lock()
		for name, src := range s.srcs {
			base = append(base, name+"\x00"+src)
		}
		s.mu.Unlock()
		sort.Strings(base)
	}
	removes := append([]string(nil), req.Remove...)
	sort.Strings(removes)
	patch := make([]string, 0, len(req.Files))
	for name, src := range req.Files {
		patch = append(patch, name+"\x00"+src)
	}
	sort.Strings(patch)
	return cache.Key("analyze", tenant,
		strings.Join(s.cfg.Registry.EnabledIDs(tenant), ","),
		strconv.FormatBool(req.Reset),
		strings.Join(base, "\x01"),
		strings.Join(removes, "\x01"),
		strings.Join(patch, "\x01"))
}

// runAnalyze is the admitted analysis path; it writes exactly one
// response to w (a bufferedResponse when the request came through the
// coalescing layer).
func (s *Server) runAnalyze(w http.ResponseWriter, ctx context.Context, tenant string, req *AnalyzeRequest) {
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

	s.mu.Lock()
	next := map[string]string{}
	if !req.Reset {
		for name, src := range s.srcs {
			next[name] = src
		}
	}
	s.mu.Unlock()
	for _, name := range req.Remove {
		delete(next, name)
	}
	for name, src := range req.Files {
		next[name] = src
	}
	if len(next) == 0 {
		s.bumpFailures()
		writeError(w, http.StatusBadRequest, "bad_request",
			"no sources resident", "")
		return
	}

	a, err := s.newAnalyzer(next, tenant)
	if err != nil {
		s.bumpFailures()
		writeError(w, http.StatusInternalServerError, "internal",
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
	s.analyses++
	s.noteReloadLocked(tenant)
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
	resp := AnalyzeResponse{
		Files:        files,
		Reports:      len(res.Reports),
		Incr:         res.Incr,
		ElapsedNano:  time.Since(t0).Nanoseconds(),
		Failures:     res.Failures,
		Degraded:     res.Degraded,
		Degradations: res.Degradations,
		Spill:        res.Spill,
	}
	for _, rep := range res.Ranked() {
		resp.Ranked = append(resp.Ranked, reportJSON(rep))
	}
	writeJSON(w, http.StatusOK, resp)
}

// admit is the admission path of every request that runs an analysis
// (analyze, validate): try-acquire, never queue — a saturated daemon
// sheds load at once with 429 and a Retry-After instead of stacking
// goroutines — then inflight accounting and the RequestTimeout
// deadline. On success the caller runs under the returned context and
// calls release when done.
func (s *Server) admit(w http.ResponseWriter, ctx context.Context) (context.Context, func(), bool) {
	select {
	case s.sem <- struct{}{}:
	default:
		s.mu.Lock()
		s.rejected++
		inflight := s.inflight
		s.mu.Unlock()
		w.Header().Set("Retry-After",
			strconv.Itoa(retryAfterSeconds(s.cfg.RequestTimeout, inflight)))
		writeError(w, http.StatusTooManyRequests, "overloaded",
			"too many analyses in flight", fmt.Sprintf("max_inflight=%d", s.cfg.MaxInFlight))
		return nil, nil, false
	}
	s.mu.Lock()
	s.inflight++
	s.mu.Unlock()
	cancel := context.CancelFunc(func() {})
	if s.cfg.RequestTimeout > 0 {
		ctx, cancel = context.WithTimeout(ctx, s.cfg.RequestTimeout)
	}
	if s.testRunHook != nil {
		s.testRunHook(ctx)
	}
	return ctx, func() {
		cancel()
		s.mu.Lock()
		s.inflight--
		s.mu.Unlock()
		<-s.sem
	}, true
}

// runFailed answers an admitted run that returned err: 503 "timeout"
// when its context ended (the deadline, or every waiting caller gave
// up), else 422 with the given code.
func (s *Server) runFailed(w http.ResponseWriter, ctx context.Context, err error, code, message string) {
	if ctx.Err() != nil {
		s.mu.Lock()
		s.timeouts++
		s.failures++
		s.mu.Unlock()
		writeError(w, http.StatusServiceUnavailable, "timeout",
			"analysis cancelled or timed out", ctx.Err().Error())
		return
	}
	s.bumpFailures()
	writeError(w, http.StatusUnprocessableEntity, code, message, err.Error())
}

func (s *Server) bumpFailures() {
	s.mu.Lock()
	s.failures++
	s.mu.Unlock()
}

func (s *Server) handleReports(w http.ResponseWriter, r *http.Request) {
	// A committed result never changes again: rank and render it
	// outside the lock.
	s.mu.Lock()
	last := s.last
	s.mu.Unlock()
	if last == nil {
		writeError(w, http.StatusNotFound, "no_analysis",
			"no analysis yet", "")
		return
	}
	var ranked []*report.Report
	if r.URL.Query().Get("rank") == "z" {
		ranked = last.ZRanked()
	} else {
		ranked = last.Ranked()
	}
	if r.URL.Query().Get("format") == "text" {
		var sb strings.Builder
		for _, rep := range ranked {
			fmt.Fprintln(&sb, rep)
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.Write([]byte(sb.String()))
		return
	}
	out := make([]ReportJSON, 0, len(ranked))
	for _, rep := range ranked {
		out = append(out, reportJSON(rep))
	}
	writeJSON(w, http.StatusOK, out)
}

// series is one daemon counter or gauge, as both /v1/stats and
// /v1/metrics render it.
type series struct {
	name    string // Prometheus name, labels included
	key     string // /v1/stats key; "" when a nested object carries the value
	counter bool
	v       float64
	help    string
}

// eachSeries names every daemon counter and gauge once, in /v1/metrics
// order; a family's labelled samples are adjacent. It returns the objects
// /v1/stats nests (incr, checkers, fleet) from the snapshots the
// series read: their JSON field names are, by design, a second naming of
// the series keyed "". Called with s.mu held.
func (s *Server) eachSeries(emit func(series)) (nested map[string]any) {
	nested = map[string]any{}
	counter := func(name, key string, v int64, help string) {
		emit(series{name, key, true, float64(v), help})
	}
	gauge := func(name, key string, v float64, help string) {
		emit(series{name, key, false, v, help})
	}
	counter("xgccd_requests_total", "requests", s.requests, "HTTP requests served")
	counter("xgccd_analyses_total", "analyses", s.analyses, "successful analysis runs")
	counter("xgccd_failures_total", "failures", s.failures, "failed requests")
	// Governance (DESIGN.md §9).
	counter("xgccd_rejected_total", "rejected", s.rejected, "analyze requests shed by admission control")
	counter("xgccd_timeouts_total", "timeouts", s.timeouts, "analyses cancelled by the request deadline")
	counter("xgccd_checker_failures_total", "checker_failures", s.checkerFailures, "checkers contained after panicking mid-run")
	counter("xgccd_degraded_runs_total", "degraded_runs", s.degradedRuns, "runs with traversals a budget or cap truncated")
	// Retirement, cumulative across runs (DESIGN.md §12).
	counter("xgccd_spill_evictions_total", "spill_evictions", s.spillEvictions, "per-function analysis states dropped at unit retirement")
	counter("xgccd_asts_released_total", "asts_released", s.astsReleased, "function bodies released after unit retirement")
	// Checker platform (DESIGN.md §14) and fleet (§15).
	counter("xgccd_checker_reloads_total", "checker_reloads", s.checkerReloads, "active checker-set changes picked up by analyze runs")
	counter("xgccd_coalesced_analyzes_total", "coalesced_analyzes", s.coalescedAnalyzes, "analyze requests that shared an identical in-flight run")
	if s.cfg.Fleet != nil {
		fs := s.cfg.Fleet.Stats()
		nested["fleet"] = fs
		counter("xgccd_fleet_dispatched_total", "", fs.Dispatched, "units offered to fleet workers")
		counter("xgccd_fleet_filled_total", "", fs.Filled, "units a worker completed into the shared CAS")
		counter("xgccd_fleet_requeues_total", "", fs.Requeues, "shards re-posted to the next worker after a transport failure")
		counter("xgccd_fleet_refused_total", "", fs.Refused, "units not offered because no worker is configured")
		counter("xgccd_fleet_local_fallback_total", "", fs.LocalFallback, "offered units no worker filled, run locally instead")
		counter("xgccd_fleet_batches_total", "", fs.Batches, "posts to workers (one per worker per phase with misses, plus re-posts)")
		gauge("xgccd_fleet_workers", "", float64(fs.Workers), "configured fleet workers")
	}
	counter(`xgccd_validations_total{outcome="admitted"}`, "validations_admitted", s.validationsAdmitted, "checker validations by outcome")
	counter(`xgccd_validations_total{outcome="rejected"}`, "validations_rejected", s.validationsRejected, "checker validations by outcome")
	gauge("xgccd_registry_checkers", "registry_checkers", float64(len(s.cfg.Registry.List())), "checker versions stored in the registry")
	gauge("xgccd_inflight", "inflight", float64(s.inflight), "analyze requests currently admitted")
	gauge("xgccd_max_inflight", "max_inflight", float64(s.cfg.MaxInFlight), "admission bound on concurrently admitted requests")
	gauge("xgccd_resident_files", "files", float64(len(s.srcs)), "sources in the resident tree")
	if s.last != nil {
		gauge("xgccd_reports", "reports", float64(len(s.last.Reports)), "reports in the last run")
		if len(s.last.Stats) > 0 {
			nested["checkers"] = s.last.Stats
		}
	}
	// Store traffic, cumulative across runs; the last run's own figures
	// follow, and nest under incr on /v1/stats.
	counter("xgccd_cache_hits_total", "cache_hits", s.cacheHits, "store hits, all runs")
	counter("xgccd_cache_misses_total", "cache_misses", s.cacheMisses, "store misses, all runs")
	counter("xgccd_cache_puts_total", "cache_puts", s.cachePuts, "store writes, all runs")
	counter("xgccd_cache_put_errors", "cache_put_errors", s.cachePutErrors, "store writes that failed, all runs (full disk, read-only cache)")
	if s.last == nil || s.last.Incr == nil {
		return nested
	}
	in := s.last.Incr
	nested["incr"] = in
	if st := in.Store; st != nil {
		gauge("xgccd_store_records", "", float64(st.Records), "keys the disk store serves")
		gauge("xgccd_store_live_bytes", "", float64(st.LiveBytes), "bytes of the records the disk store serves")
		gauge("xgccd_store_superseded_bytes", "", float64(st.SupersededBytes), "bytes of records a later record of the same key shadows (two handles put one key, or a damaged record was rewritten)")
	}
	gauge("xgccd_funcs_invalidated", "", float64(in.FuncsInvalidated), "functions of the units the last run found no store record for")
	gauge("xgccd_funcs_analyzed_live", "", float64(in.FuncsAnalyzedLive), "function analyses performed live")
	gauge("xgccd_funcs_analyzed_replayed", "", float64(in.FuncsAnalyzedReplayed), "function analyses replayed from cache")
	gauge("xgccd_units_live", "", float64(in.UnitsLive), "units analyzed live")
	gauge("xgccd_units_replayed", "", float64(in.UnitsReplayed), "units replayed from cache")
	gauge("xgccd_units_remote", "", float64(in.UnitsRemote), "units a fleet worker filled during the last run")
	gauge("xgccd_files_reparsed", "", float64(in.FilesReparsed), "files parsed (every file, every run)")
	gauge("xgccd_phase_parse_seconds", "", float64(in.ParseNanos)/1e9, "pass-1 wall time")
	gauge("xgccd_phase_build_seconds", "", float64(in.BuildNanos)/1e9, "program assembly wall time")
	gauge("xgccd_phase_analyze_seconds", "", float64(in.AnalyzeNanos)/1e9, "checker execution wall time")
	gauge("xgccd_phase_merge_seconds", "", float64(in.MergeNanos)/1e9, "result merge wall time")
	return nested
}

// handleStats renders every series with a /v1/stats key as a flat
// field, plus the nested objects that carry the rest: the last run's
// incr and per-checker stats, and the fleet counters.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	defer s.mu.Unlock()
	// reports reads 0 until the first run brings its series.
	out := map[string]any{"reports": 0}
	nested := s.eachSeries(func(m series) {
		if m.key != "" {
			out[m.key] = m.v
		}
	})
	for k, v := range nested {
		out[k] = v
	}
	writeJSON(w, http.StatusOK, out)
}

// handleMetrics renders every series in the Prometheus text format, one
// HELP/TYPE header per family.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	var sb strings.Builder
	family := ""
	s.mu.Lock()
	s.eachSeries(func(m series) {
		typ, format := "gauge", "%s %g\n"
		if m.counter {
			typ, format = "counter", "%s %.0f\n"
		}
		if f, _, _ := strings.Cut(m.name, "{"); f != family {
			family = f
			fmt.Fprintf(&sb, "# HELP %s %s\n# TYPE %s %s\n", f, m.help, f, typ)
		}
		fmt.Fprintf(&sb, format, m.name, m.v)
	})
	s.mu.Unlock()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	io.WriteString(w, sb.String())
}

// bufferedResponse captures one handler's full response — status,
// headers, body — so the coalescing layer can replay it verbatim to
// every caller that shared the run.
type bufferedResponse struct {
	header http.Header
	status int
	body   bytes.Buffer
}

func newBufferedResponse() *bufferedResponse {
	return &bufferedResponse{header: http.Header{}, status: http.StatusOK}
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

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// SortedFiles returns the resident file names (tests and logs).
func (s *Server) SortedFiles() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	names := make([]string, 0, len(s.srcs))
	for n := range s.srcs {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
