package fleet

// Scale-out analysis fleet (DESIGN.md §15): the coordinator/worker
// job protocol. A coordinator runs the ordinary cached analysis and
// offers each phase's cache-miss units to the fleet; workers are
// "fill this cache key" services — each computes a complete unit
// entry, writes it to the shared content-addressed store, and reports
// which keys it filled. The coordinator then re-probes the store and
// replays the entries through the existing (byte-identical-pinned)
// replay path, so fleet output needs no consistency argument beyond
// the one the cache already carries: keys name complete computations,
// and incomplete computations are never stored.

import "repro/mc"

// WorkRequest is one batch of unit jobs posted to a worker's
// /v1/work. Every job in a batch shares one source tree and one
// option set (the coordinator only batches jobs from the same run).
// TreeFP fingerprints Files so a warm worker can reuse its built
// program without re-hashing the sources.
type WorkRequest struct {
	TreeFP  string            `json:"tree_fp"`
	Files   map[string]string `json:"files"`
	Options mc.Options        `json:"options"`
	Jobs    []mc.UnitJob      `json:"jobs"`
}

// JobResult reports one job's outcome. Filled means the complete
// entry is in the shared store under Key — the worker always writes
// before it responds, so a coordinator that sees Filled can re-probe
// immediately. An unfilled result with Err set means the job RAN and
// must not be retried: a degraded run or a checker panic would fail
// the same way on any worker, so the unit belongs on the
// coordinator's local fallback path (which records the degradation or
// failure in the result, exactly as a non-fleet run would).
// Transport-level failures never appear here — the coordinator sees
// them as request errors and requeues the whole batch.
type JobResult struct {
	Key    string `json:"key"`
	Filled bool   `json:"filled"`
	Err    string `json:"err,omitempty"`
}

// WorkResponse answers a WorkRequest with one result per job.
type WorkResponse struct {
	Results []JobResult `json:"results"`
}

// WorkerStats is a worker's /v1/stats payload. CheckersCompiled counts
// (tree, checker) pairs parsed and compiled — once each, however many
// jobs name them.
type WorkerStats struct {
	Requests         int64 `json:"requests"`
	JobsRun          int64 `json:"jobs_run"`
	JobsFilled       int64 `json:"jobs_filled"`
	TreesBuilt       int64 `json:"trees_built"`
	TreesReused      int64 `json:"trees_reused"`
	CheckersCompiled int64 `json:"checkers_compiled"`
	EntryPuts        int64 `json:"entry_puts"`
}

// Stats is the coordinator's counter snapshot, merged into the
// daemon's /v1/stats and /v1/metrics.
type Stats struct {
	// Dispatched counts jobs admitted to the queue; Filled the subset
	// a worker completed. Requeues counts re-admissions after a
	// transport failure (worker loss mid-unit). Refused counts jobs
	// turned away at admission (queue full or tenant over quota) and
	// LocalFallback jobs that exhausted their retries or whose worker
	// declined them — both run on the coordinator, so neither is ever
	// lost. Batches counts worker round-trips.
	Dispatched    int64 `json:"fleet_dispatched"`
	Filled        int64 `json:"fleet_filled"`
	Requeues      int64 `json:"fleet_requeues"`
	Refused       int64 `json:"fleet_refused"`
	LocalFallback int64 `json:"fleet_local_fallback"`
	Batches       int64 `json:"fleet_batches"`
	Workers       int   `json:"fleet_workers"`
}
