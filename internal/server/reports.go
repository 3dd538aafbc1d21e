package server

import (
	"fmt"
	"io"
	"net/http"
	"strings"

	"repro/internal/report"
)

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

// appendReportsJSON renders ranked reports, in order, onto dst.
func appendReportsJSON(dst []ReportJSON, ranked []*report.Report) []ReportJSON {
	for _, r := range ranked {
		dst = append(dst, ReportJSON{
			Pos:     r.Pos.String(),
			Checker: r.Checker,
			Rule:    r.Rule,
			Func:    r.Func,
			Class:   string(r.Class),
			Msg:     r.Msg,
			Text:    r.String(),
		})
	}
	return dst
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
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		for _, rep := range ranked {
			fmt.Fprintln(w, rep)
		}
		return
	}
	// An empty list, not null.
	writeJSON(w, http.StatusOK, appendReportsJSON(make([]ReportJSON, 0, len(ranked)), ranked))
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

// emitter hands eachSeries' counters and gauges to its callback.
type emitter func(series)

func (e emitter) counter(name, key string, v int64, help string) {
	e(series{name, key, true, float64(v), help})
}

func (e emitter) gauge(name, key string, v float64, help string) {
	e(series{name, key, false, v, help})
}

// eachSeries names every daemon counter and gauge once, in /v1/metrics
// order; a family's labelled samples are adjacent. It returns the objects
// /v1/stats nests (incr, checkers, fleet) from the snapshots the
// series read: their JSON field names are, by design, a second naming of
// the series keyed "". Called with s.mu held.
func (s *Server) eachSeries(emit emitter) (nested map[string]any) {
	nested = map[string]any{}
	counter, gauge := emit.counter, emit.gauge
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
	s.fleetSeries(emit, nested)
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
	gauge("xgccd_files_reparsed", "", float64(in.FilesReparsed), "files pass 1 skimmed (every file, every run)")
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
