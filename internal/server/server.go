// Package server is the xgccd analysis daemon: a long-running HTTP
// service that keeps sources and the incremental analysis cache
// resident across requests (DESIGN.md §8). Clients push file edits
// with POST /v1/analyze; unchanged work replays from the resident
// store, so steady-state requests cost roughly the dirty closure of
// the edit, not the whole tree.
//
// The HTTP surface is versioned under /v1/: Server.Handler is the
// route table, and DESIGN.md §9.5 gives each route's statuses.
//
// The checker routes are the admission pipeline (DESIGN.md §14):
// upload stores a version in the registry, validate runs the harness
// and attaches a verdict, enable switches the daemon's active set — the
// next analyze run picks it up without a restart or losing the
// resident tree, and unchanged checkers replay byte-identically
// because cache keys fingerprint checker text.
//
// Every route lives under /v1/; anything else, the pre-v1 unversioned
// paths included, gets the enveloped 404. Every error response is a
// uniform JSON envelope {"code": ..., "message": ..., "details": ...},
// except a coordinator's /v1/cas, which answers the CAS protocol's
// plain-text 400 and 405 (DESIGN.md §15.1).
//
// Resource governance: at most Config.MaxInFlight analyze and validate
// requests are admitted at once (excess gets 429 "overloaded"), each
// admitted run is bounded by Config.RequestTimeout (503 "timeout" on
// expiry, with the resident tree rolled back), and
// Config.Options.Budgets bounds each traversal inside a run.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/cache"
	"repro/internal/fleet"
	"repro/internal/registry"
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

// Server is the daemon state. Mutable state lives behind mu: the
// source tree, the last result, and cumulative counters. runMu
// serializes the run-and-commit section so concurrent analyze
// requests cannot interleave tree commits; sem is the admission
// semaphore in front of it. The store (cfg.Store) is internally
// synchronized and shared across requests — that is the residency.
type Server struct {
	cfg     Config
	sem     chan struct{}
	runMu   sync.Mutex
	maxBody int64 // cache.MaxWireBody; tests shrink it

	// flight coalesces concurrent identical analyze requests: K posts
	// that denote the same (tree, patch, checker set) share one
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
	// on the analyze path and validation outcomes. loadedSet is the
	// active set the last committed run loaded, so a run that loads a
	// different one counts as exactly one reload.
	checkerReloads      int64
	validationsAdmitted int64
	validationsRejected int64
	loadedSet           string
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
	if cfg.Store == nil {
		cfg.Store = cache.NewMemStore()
	}
	if cfg.Registry == nil {
		cfg.Registry, _ = registry.Open("") // memory-only never fails
	}
	if cfg.Options == nil {
		opts := mc.DefaultOptions()
		cfg.Options = &opts
	}
	return &Server{
		cfg:     cfg,
		sem:     make(chan struct{}, cfg.MaxInFlight),
		srcs:    map[string]string{},
		maxBody: cache.MaxWireBody,
	}
}

// Close does nothing: a Server holds nothing to release. It stays only
// because the frozen benchmark/workloads.go:175 calls it.
func (s *Server) Close() {}

// Handler returns the daemon's HTTP handler: the /v1/ surface
// (including the /v1/checkers admission pipeline) and an enveloped 404
// for everything else.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	// api registers a route that counts in requests.
	api := func(pattern string, h http.HandlerFunc) {
		mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
			s.add(&s.requests, 1)
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
	api("POST /v1/checkers/{id}/enable", s.handleCheckerSwitch(true))
	api("POST /v1/checkers/{id}/disable", s.handleCheckerSwitch(false))
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
	s.mountFleet(mux) // GET /v1/healthz and a coordinator's /v1/cas
	return mux
}

// ErrorEnvelope is the uniform error body every endpoint returns on
// failure (DESIGN.md §9).
type ErrorEnvelope struct {
	Code    string `json:"code"`
	Message string `json:"message"`
	Details string `json:"details,omitempty"`
}

func writeError(w http.ResponseWriter, status int, code, message, details string) {
	writeJSON(w, status, ErrorEnvelope{Code: code, Message: message, Details: details})
}

// fail answers a request that failed with the error envelope and counts
// it in failures.
func (s *Server) fail(w http.ResponseWriter, status int, code, message, details string) {
	s.add(&s.failures, 1)
	writeError(w, status, code, message, details)
}

// add adds d to one of the counters mu guards.
func (s *Server) add(counter *int64, d int64) {
	s.mu.Lock()
	*counter += d
	s.mu.Unlock()
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// decodeBody decodes the request's JSON body into v, reading at most
// maxBody bytes of it; an empty body leaves v untouched. On failure it
// answers the request (413 or 400) and reports false.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.maxBody)).Decode(v)
	if err == nil || errors.Is(err, io.EOF) {
		return true
	}
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		s.fail(w, http.StatusRequestEntityTooLarge, "payload_too_large",
			"request body too large", fmt.Sprintf("limit is %d bytes", tooBig.Limit))
	} else {
		s.fail(w, http.StatusBadRequest, "bad_request",
			"malformed JSON body", err.Error())
	}
	return false
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
	s.add(&s.inflight, 1)
	cancel := context.CancelFunc(func() {})
	if s.cfg.RequestTimeout > 0 {
		ctx, cancel = context.WithTimeout(ctx, s.cfg.RequestTimeout)
	}
	if s.testRunHook != nil {
		s.testRunHook(ctx)
	}
	return ctx, func() {
		cancel()
		s.add(&s.inflight, -1)
		<-s.sem
	}, true
}

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
	per := d / time.Duration(max(inflight, 1))
	return max(1, int((per+time.Second-1)/time.Second))
}

// runFailed answers an admitted run that returned err: 503 "timeout"
// when its context ended (the deadline, or every waiting caller gave
// up), else 422 with the given code.
func (s *Server) runFailed(w http.ResponseWriter, ctx context.Context, err error, code, message string) {
	if ctx.Err() == nil {
		s.fail(w, http.StatusUnprocessableEntity, code, message, err.Error())
		return
	}
	s.add(&s.timeouts, 1)
	s.fail(w, http.StatusServiceUnavailable, "timeout",
		"analysis cancelled or timed out", ctx.Err().Error())
}
