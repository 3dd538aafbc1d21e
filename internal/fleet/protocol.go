package fleet

// Scale-out analysis fleet (DESIGN.md §15): the coordinator/worker
// protocol. A coordinator runs the ordinary cached analysis and offers
// each phase's cache-miss units to the fleet, one WorkRequest per
// worker per phase. A worker runs them through the ordinary unit
// executor (mc.RunUnits), commits the complete records to the shared
// content-addressed store in one batched write, and answers with the
// count it filled; the coordinator's analyzer re-probes the store and
// replays what appeared through the existing (byte-identical-pinned)
// replay path.

import "repro/mc"

// WorkRequest is the body posted to a worker's /v1/work: the source
// tree, the options and the barrier marks once, and each checker's
// source once with the unit keys wanted.
type WorkRequest = mc.UnitRun

// WorkResponse answers a WorkRequest with how many of the wanted keys
// are now in the shared store — the worker always writes before it
// responds, so the coordinator can re-probe immediately. The rest were
// declined (the tree does not derive the key, the run was degraded or
// the checker panicked) and would be by any worker, so they belong on
// the coordinator's local path, which records the degradation or
// failure exactly as a non-fleet run would.
type WorkResponse struct {
	Filled int64 `json:"filled"`
}

// WorkerStats is a worker's /v1/stats payload: one request per shard
// posted, one job per unit key asked for. CheckersCompiled counts
// (tree, checker) pairs parsed and compiled — once each, however many
// requests name them.
type WorkerStats struct {
	Requests         int64 `json:"requests"`
	JobsRun          int64 `json:"jobs_run"`
	JobsFilled       int64 `json:"jobs_filled"`
	TreesBuilt       int64 `json:"trees_built"`
	TreesReused      int64 `json:"trees_reused"`
	CheckersCompiled int64 `json:"checkers_compiled"`
}

// Stats is the coordinator's counter snapshot, merged into the
// daemon's /v1/stats and /v1/metrics.
type Stats struct {
	// Dispatched counts units offered to workers; Filled the subset a
	// worker completed and LocalFallback the rest, which run on the
	// coordinator — so Dispatched == Filled + LocalFallback once a run
	// returns, and nothing is ever lost. Refused counts units not
	// offered at all (no workers configured). Batches counts posts to
	// workers, Requeues the shards re-posted after a transport failure.
	Dispatched    int64 `json:"fleet_dispatched"`
	Filled        int64 `json:"fleet_filled"`
	Requeues      int64 `json:"fleet_requeues"`
	Refused       int64 `json:"fleet_refused"`
	LocalFallback int64 `json:"fleet_local_fallback"`
	Batches       int64 `json:"fleet_batches"`
	Workers       int   `json:"fleet_workers"`
}
