package mc

// Consolidated configuration (the context-first API surface, DESIGN.md
// §9): RunConfig holds what a caller sets on an analyzer — options
// (budgets included), parallelism, the cache store, fleet dispatch —
// and Configure applies it in one call. A run's deadline is the
// caller's context, and a cache directory is a store the caller opens
// (cache.NewDirStore). Configuration is all an analyzer keeps between
// runs: each run builds its own annotation store and counts its own
// store traffic, and inspecting a function's summaries is a run of its
// own (Analyzer.Supergraph), not a setting.
// This is the only configuration surface; the per-field setters from
// earlier releases are gone (see README.md "Configuring the analyzer").

import (
	"repro/internal/cache"
	"repro/internal/cc"
	"repro/internal/core"
	"repro/internal/metal"
)

// Budgets re-exports the engine resource budgets (core.Budgets, set as
// Options.Budgets): a per-path step ceiling, a per-root block ceiling,
// a per-root wall clock and a per-root instance-ops ceiling. A tripped
// budget, like the engine's fixed call-depth and exit-partition caps,
// degrades the result (Result.Degraded) rather than failing the run.
type Budgets = core.Budgets

// DegradeEvent re-exports one recorded traversal truncation.
type DegradeEvent = core.DegradeEvent

// CheckerFailure re-exports the structured record of a checker that
// panicked mid-run.
type CheckerFailure = core.CheckerFailure

// RunConfig is the consolidated analyzer configuration for Configure.
// The zero value changes nothing: every field is optional and only
// non-zero fields are applied.
type RunConfig struct {
	// Options replaces the engine feature switches when non-nil.
	Options *Options
	// Jobs sets the worker count for parallel parsing and checker
	// execution; 0 keeps the current setting (initially
	// runtime.GOMAXPROCS).
	Jobs int
	// CacheStore enables the analysis cache on a store: a
	// cache.NewDirStore for a directory that persists across runs, or
	// cache.NewMemStore() for a resident daemon.
	CacheStore cache.Store
	// MaxResidentMB is ignored: every run retires (DESIGN.md §12). It
	// stays only because the frozen benchmark/workloads.go:74 sets it.
	MaxResidentMB int
	// UnitRunner, when non-nil, is offered each phase's cache-miss
	// units before they run locally (fleet dispatch, DESIGN.md §15).
	// Requires a cache store: workers fill unit keys in the shared
	// store and the analyzer replays them. Ignored without one.
	UnitRunner UnitRunner
}

// Configure applies a consolidated configuration. Fields at their
// zero value are left untouched, so Configure can be called more than
// once to adjust individual knobs. No setting can fail to apply today:
// the error is always nil.
func (a *Analyzer) Configure(cfg RunConfig) error {
	if cfg.Options != nil {
		a.opts = *cfg.Options
	}
	if cfg.Jobs > 0 {
		a.jobs = cfg.Jobs
	}
	if cfg.CacheStore != nil {
		a.cacheStore = cfg.CacheStore
	}
	if cfg.UnitRunner != nil {
		a.unitRunner = cfg.UnitRunner
	}
	return nil
}

// LoadCheckerWithCallouts compiles metal checker source and registers
// custom Go callout functions the checker's patterns may invoke (by
// name, over the builtin callout library). Checkers with native
// callouts always run live — Go code is invisible to the cache
// fingerprint — and a callout that panics is contained per checker
// like any other checker fault (Result.Failures).
func (a *Analyzer) LoadCheckerWithCallouts(src string, callouts map[string]Callout) error {
	c, err := metal.Parse(src)
	if err != nil {
		return err
	}
	for name, fn := range callouts {
		c.Callouts[name] = fn
	}
	a.checkers = append(a.checkers, c)
	a.checkerFPs = append(a.checkerFPs, cc.HashBytes([]byte(src)))
	// Native callouts cannot ride a fleet job (the Go code is not in
	// the source text), so no shippable source is retained — such
	// checkers always run on the coordinator, exactly as they always
	// run live for the cache.
	a.checkerSrcs = append(a.checkerSrcs, "")
	return nil
}
