package server

// The daemon's fleet role (DESIGN.md §15): with Config.Fleet set the
// daemon is a coordinator. This file is the only reader of Config.Fleet.

import (
	"fmt"
	"net/http"

	"repro/internal/cache"
	"repro/mc"
)

// unitRunner offers an analyzer's cache-miss units to the fleet; nil
// keeps every unit local.
func (s *Server) unitRunner() mc.UnitRunner {
	if s.cfg.Fleet == nil {
		return nil
	}
	return s.cfg.Fleet.RunnerFor("")
}

// mountFleet registers the liveness probe, shaped like the fleet
// worker's so one health check covers every role (the role field tells
// them apart), and a coordinator's shared CAS: fleet workers and sibling
// coordinators read and fill the store the daemon analyzes against.
// Content-addressed keys make this safe — every write is a complete
// computation under its own name.
func (s *Server) mountFleet(mux *http.ServeMux) {
	role := "daemon"
	if s.cfg.Fleet != nil {
		role = "coordinator"
		cas := http.StripPrefix("/v1/cas", cache.NewCASServer(s.cfg.Store))
		mux.Handle("/v1/cas/", cas)
		// Exact-path registration too: without it ServeMux 301s a batch
		// POST to /v1/cas, and Go clients rewrite a redirected POST into
		// a GET.
		mux.Handle("/v1/cas", cas)
	}
	mux.HandleFunc("GET /v1/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, "{\"status\":\"ok\",\"role\":%q}\n", role)
	})
}

// fleetSeries emits a coordinator's xgccd_fleet_* series and nests
// their snapshot under fleet on /v1/stats. Called with s.mu held.
func (s *Server) fleetSeries(emit emitter, nested map[string]any) {
	if s.cfg.Fleet == nil {
		return
	}
	fs := s.cfg.Fleet.Stats()
	nested["fleet"] = fs
	emit.counter("xgccd_fleet_dispatched_total", "", fs.Dispatched, "units offered to fleet workers")
	emit.counter("xgccd_fleet_filled_total", "", fs.Filled, "units a worker completed into the shared CAS")
	emit.counter("xgccd_fleet_requeues_total", "", fs.Requeues, "shards re-posted to the next worker after a transport failure")
	emit.counter("xgccd_fleet_refused_total", "", fs.Refused, "units not offered because no worker is configured")
	emit.counter("xgccd_fleet_local_fallback_total", "", fs.LocalFallback, "offered units no worker filled, run locally instead")
	emit.counter("xgccd_fleet_batches_total", "", fs.Batches, "posts to workers (one per worker per phase with misses, plus re-posts)")
	emit.gauge("xgccd_fleet_workers", "", float64(fs.Workers), "configured fleet workers")
}
