package mc

// Consolidated configuration (the context-first API surface, DESIGN.md
// §9): RunConfig gathers every knob — options (budgets included),
// parallelism, cache wiring, timeout — and Configure applies them in
// one call.
// This is the only configuration surface; the per-field setters from
// earlier releases are gone (see README.md "Configuring the analyzer").

import (
	"context"
	"fmt"
	"time"

	"repro/internal/cache"
	"repro/internal/cc"
	"repro/internal/core"
	"repro/internal/metal"
)

// Budgets re-exports the engine resource budgets (core.Budgets, set as
// Options.Budgets): a per-path step ceiling, a per-root block ceiling,
// a per-root wall clock and a per-root instance-ops ceiling. A tripped
// budget degrades the result (Result.Degraded) rather than failing the
// run.
type Budgets = core.Budgets

// DegradeEvent re-exports one recorded traversal truncation.
type DegradeEvent = core.DegradeEvent

// CheckerFailure re-exports the structured record of a checker that
// panicked mid-run.
type CheckerFailure = core.CheckerFailure

// RunConfig is the consolidated analyzer configuration for Configure
// and AnalyzeContext. The zero value changes nothing: every field is
// optional and only non-zero fields are applied.
type RunConfig struct {
	// Options replaces the engine feature switches when non-nil.
	Options *Options
	// Jobs sets the worker count for parallel parsing and checker
	// execution; 0 keeps the current setting, negative restores the
	// default (runtime.GOMAXPROCS).
	Jobs int
	// CacheDir enables the persistent analysis cache in a directory
	// (created if needed). Mutually exclusive with CacheStore.
	CacheDir string
	// CacheStore enables the analysis cache on an arbitrary store
	// (e.g. cache.NewMemStore() for a resident daemon).
	CacheStore cache.Store
	// MaxResidentMB is ignored: every run retires (DESIGN.md §12). It
	// stays only because the frozen benchmark/workloads.go:74 sets it.
	MaxResidentMB int
	// Supergraph names one function whose summaries each engine that
	// traverses it live renders just before retiring its unit
	// (Result.Supergraph). It changes no traversal and no report.
	Supergraph string
	// Timeout bounds each RunContext call; RunContext derives a
	// deadline context per run. Zero means no analyzer-imposed bound.
	Timeout time.Duration
	// UnitRunner, when non-nil, is offered each phase's cache-miss
	// units before they run locally (fleet dispatch, DESIGN.md §15).
	// Requires a cache store: workers fill unit keys in the shared
	// store and the analyzer replays them. Ignored without one.
	UnitRunner UnitRunner
}

// Configure applies a consolidated configuration. Fields at their
// zero value are left untouched, so Configure can be called more than
// once to adjust individual knobs.
func (a *Analyzer) Configure(cfg RunConfig) error {
	if cfg.CacheDir != "" && cfg.CacheStore != nil {
		return fmt.Errorf("RunConfig: CacheDir and CacheStore are mutually exclusive")
	}
	if cfg.Options != nil {
		a.opts = *cfg.Options
	}
	if cfg.Supergraph != "" {
		a.supergraph = cfg.Supergraph
	}
	if cfg.Jobs < 0 {
		a.jobs = 0
	} else if cfg.Jobs > 0 {
		a.jobs = cfg.Jobs
	}
	if cfg.CacheDir != "" {
		ds, err := cache.NewDirStore(cfg.CacheDir)
		if err != nil {
			return err
		}
		a.setStore(ds)
	}
	if cfg.CacheStore != nil {
		a.setStore(cfg.CacheStore)
	}
	if cfg.Timeout > 0 {
		a.timeout = cfg.Timeout
	}
	if cfg.UnitRunner != nil {
		a.unitRunner = cfg.UnitRunner
	}
	return nil
}

// AnalyzeContext is the one-call entry point: build an analyzer from
// cfg, add every source, load every bundled checker by name, and run
// under ctx. It is the daemon's per-request path and the shortest
// road from sources to ranked reports:
//
//	res, err := mc.AnalyzeContext(ctx, mc.RunConfig{Timeout: time.Minute},
//	    map[string]string{"driver.c": src}, "free", "null")
//
// On cancellation it returns the partial Result alongside ctx.Err(),
// exactly as RunContext does.
func AnalyzeContext(ctx context.Context, cfg RunConfig, sources map[string]string, checkers ...string) (*Result, error) {
	a := NewAnalyzer()
	if err := a.Configure(cfg); err != nil {
		return nil, err
	}
	for name, src := range sources {
		a.AddSource(name, src)
	}
	for _, name := range checkers {
		if err := a.LoadBundledChecker(name); err != nil {
			return nil, err
		}
	}
	return a.RunContext(ctx)
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
