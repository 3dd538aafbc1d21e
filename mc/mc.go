// Package mc is the public API of this metal/xgcc reproduction — the
// metacompilation system of Hallem, Chelf, Xie & Engler, "A System and
// Language for Building System-Specific, Static Analyses" (PLDI 2002).
//
// A typical session parses C sources, loads one or more metal
// checkers, runs the context-sensitive interprocedural analysis, and
// reads back ranked error reports:
//
//	a := mc.NewAnalyzer()
//	a.AddSource("driver.c", src)
//	a.LoadBundledChecker("free")
//	res, err := a.RunContext(ctx)
//	for _, r := range res.Ranked() {
//	    fmt.Println(r)
//	}
package mc

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/cache"
	"repro/internal/cc"
	"repro/internal/checkers"
	"repro/internal/core"
	"repro/internal/metal"
	"repro/internal/pattern"
	"repro/internal/prog"
	"repro/internal/rank"
	"repro/internal/report"
)

// Options re-exports the engine feature switches.
type Options = core.Options

// DefaultOptions enables the full analysis (interprocedural traversal,
// block and function caching, false path pruning, synonyms, kills).
func DefaultOptions() Options { return core.DefaultOptions() }

// Report re-exports the report type.
type Report = report.Report

// Analyzer assembles sources and checkers and runs the engine.
type Analyzer struct {
	opts     Options
	srcs     map[string]string
	files    []*cc.File
	checkers []*metal.Checker
	shared   *core.Shared
	history  *report.History
	// Marks lets callers pre-annotate function names (e.g. blocking
	// functions for the block checker).
	marks map[string][]string
	// jobs is the worker count for parallel parsing and checker
	// execution; 0 means runtime.GOMAXPROCS(0).
	jobs int
	// Incremental cache (RunConfig.CacheDir / CacheStore); nil runs
	// the plain path. checkerFPs tracks one source fingerprint per
	// loaded checker for cache keying.
	cacheStore   cache.Store
	cacheMetrics *cache.Metrics
	diskStore    interface{ Stats() *cache.StoreStats } // the store, when it reports its shape
	checkerFPs   []string
	// checkerSrcs retains each loaded checker's metal source so fleet
	// jobs can ship it to workers (RunConfig.UnitRunner); entries are
	// "" for checkers without shippable source.
	checkerSrcs []string
	// unitRunner, when set, is offered each phase's cache-miss units
	// before they run locally (RunConfig.UnitRunner; DESIGN.md §15).
	unitRunner func(ctx context.Context, run *UnitRun) error
	// timeout bounds each RunContext call (RunConfig.Timeout); zero
	// means no bound beyond the caller's context.
	timeout time.Duration
	// spillDir is the streaming mode's persistent summary-store
	// directory (RunConfig.SpillDir); empty uses a per-run temp dir.
	spillDir string
}

// NewAnalyzer returns an analyzer with default options.
func NewAnalyzer() *Analyzer {
	return &Analyzer{
		opts:   core.DefaultOptions(),
		srcs:   map[string]string{},
		shared: core.NewShared(),
		marks:  map[string][]string{},
	}
}

func (a *Analyzer) parallelism() int {
	if a.jobs > 0 {
		return a.jobs
	}
	return runtime.GOMAXPROCS(0)
}

// AddSource registers one C translation unit by name, replacing any
// previous source under the same name.
func (a *Analyzer) AddSource(name, src string) { a.srcs[name] = src }

// AddFile registers a C file from disk under its (cleaned) path, so
// same-named files from different directories stay distinct. A path
// already registered is a duplicate and an error.
func (a *Analyzer) AddFile(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	name := filepath.Clean(path)
	if _, dup := a.srcs[name]; dup {
		return fmt.Errorf("duplicate source %s", name)
	}
	a.AddSource(name, string(data))
	return nil
}

// AddDirectory registers every .c file in a directory (not
// recursive).
func (a *Analyzer) AddDirectory(dir string) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if e.IsDir() || filepath.Ext(e.Name()) != ".c" {
			continue
		}
		if err := a.AddFile(filepath.Join(dir, e.Name())); err != nil {
			return err
		}
	}
	return nil
}

// AddAST registers a pre-parsed translation unit (pass 2 of the
// two-pass pipeline; see EmitAST).
func (a *Analyzer) AddAST(f *cc.File) { a.files = append(a.files, f) }

// EmitAST runs pass 1 on one source: parse and serialize the AST, as
// §6 describes ("compiles each file in isolation, emitting ASTs to a
// temporary file").
func EmitAST(name, src string) ([]byte, error) {
	f, err := cc.ParseFile(name, src)
	if err != nil {
		return nil, err
	}
	return cc.EmitFile(f), nil
}

// LoadAST reassembles an emitted AST (pass 2).
func LoadAST(data []byte) (*cc.File, error) { return cc.ReadFile(data) }

// LoadChecker compiles metal checker source text.
func (a *Analyzer) LoadChecker(src string) error {
	c, err := metal.Parse(src)
	if err != nil {
		return err
	}
	a.checkers = append(a.checkers, c)
	a.checkerFPs = append(a.checkerFPs, cc.HashBytes([]byte(src)))
	a.checkerSrcs = append(a.checkerSrcs, src)
	return nil
}

// LoadBundledChecker loads one of the shipped checkers by name (free,
// lock, null, interrupt, block, banned, format, leak, realloc,
// sec-annotator, panic-marker).
func (a *Analyzer) LoadBundledChecker(name string) error {
	s, ok := checkers.Lookup(name)
	if !ok {
		return &checkers.UnknownCheckerError{Name: name}
	}
	return a.LoadChecker(s.Text)
}

// BundledCheckers lists the shipped checker names and docs.
func BundledCheckers() []checkers.Source { return checkers.All() }

// MarkFunction pre-annotates a function name (composition flags such
// as "blocking" or "pathkill").
func (a *Analyzer) MarkFunction(name, key string) {
	a.marks[name] = append(a.marks[name], key)
}

// SetHistory installs a prior version's reports; matching reports are
// suppressed (§8 "History").
func (a *Analyzer) SetHistory(old []*Report) { a.history = report.NewHistory(old) }

// Result is one analysis run's output.
type Result struct {
	// Program is the assembled whole-program view.
	Program *prog.Program
	// Raw reports in emission order, after history suppression.
	Reports []*Report
	// RuleStats holds z-statistic evidence per rule.
	RuleStats map[string]rank.RuleStat
	// Stats aggregates engine counters per checker.
	Stats map[string]core.Stats
	// Engines retains each checker's engine for summary inspection.
	Engines map[string]*core.Engine
	// Incr reports what the cache-aware run replayed versus analyzed
	// live; nil when the cache is disabled.
	Incr *IncrStats
	// Spill reports the streaming mode's memory-bounding activity
	// (evictions, reloads, spill bytes, ASTs released); nil when
	// Options.MaxResidentMB is 0 (DESIGN.md §12).
	Spill *SpillStats
	// Failures lists checkers that panicked mid-run (a metal action or
	// Go-callout bug). A failed checker keeps the reports it emitted
	// before crashing; the remaining checkers run to completion.
	Failures []*CheckerFailure
	// Degraded reports that some traversal was truncated — a budget
	// tripped or the context was cancelled. Degradations records
	// exactly what was cut. Degraded results are never cached.
	Degraded     bool
	Degradations []DegradeEvent
}

// RunContext parses everything (pass 1 fans out over a worker pool),
// assembles the program, and applies each loaded checker (engines run
// concurrently, ordered into phases around the composition barrier).
// Results are merged deterministically in checker load order, so the
// output is bit-identical at every parallelism level; see DESIGN.md §5
// "Engine parallelism".
//
// The context cancels the analysis mid-traversal: the engines stop at
// the next governance poll (within ~256 blocks), and RunContext
// returns the partial Result alongside ctx.Err(). The partial result
// carries a DegradeCancelled record per interrupted checker, so
// callers can distinguish "complete" from "cut short". A checker that
// panics is contained: it lands in Result.Failures and the remaining
// checkers finish normally (DESIGN.md §9).
func (a *Analyzer) RunContext(ctx context.Context) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if a.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, a.timeout)
		defer cancel()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if len(a.srcs)+len(a.files) == 0 {
		return nil, fmt.Errorf("no sources added")
	}
	if len(a.checkers) == 0 {
		return nil, fmt.Errorf("no checkers loaded")
	}
	if a.cacheStore != nil {
		return a.runCached(ctx)
	}
	files, err := a.parseSources(nil)
	if err != nil {
		return nil, err
	}
	p := prog.Build(files...)

	// Pre-annotations apply before any checker runs; sorted order keeps
	// the engine's input stream deterministic (the paper's caching model
	// assumes deterministic extensions, §5.1).
	for _, m := range a.sortedMarks() {
		a.shared.Mark(m.name, m.key)
	}

	// Streaming mode (DESIGN.md §12): spill summaries and evict
	// per-function state at unit retirement, releasing ASTs once every
	// checker is done with them. Eviction never touches state a
	// remaining traversal can read, so output is unchanged.
	var stream *streamState
	if a.opts.MaxResidentMB > 0 {
		envFP, funcHash := fingerprints(p, files)
		stream, err = a.newStream(p, optionsFingerprint(a.opts), envFP, funcHash, len(a.checkers))
		if err != nil {
			return nil, err
		}
		defer stream.cleanup()
	}

	// Multi-checker compiled dispatch (DESIGN.md §11): one automaton
	// over the union of all loaded checkers' patterns, built once per
	// run and shared read-only by every engine.
	cd := core.CompileDispatch(p, a.checkers)
	engines := make([]*core.Engine, len(a.checkers))
	for i := range a.checkers {
		engines[i] = a.liveEngine(p, i, cd, stream)
	}
	for _, phase := range core.PlanPhases(a.checkers) {
		a.runPhase(ctx, engines, phase)
	}

	res := &Result{
		Program:   p,
		RuleStats: map[string]rank.RuleStat{},
		Stats:     map[string]core.Stats{},
		Engines:   map[string]*core.Engine{},
	}
	for i, c := range a.checkers {
		en := engines[i]
		res.Reports = append(res.Reports, en.Reports.Reports...)
		for rule, rc := range en.RuleStats {
			prev := res.RuleStats[rule]
			prev.Rule = rule
			prev.Examples += rc.Examples
			prev.Violations += rc.Violations
			res.RuleStats[rule] = prev
		}
		res.Stats[c.Name] = en.Stats
		res.Engines[c.Name] = en
		collectGovernance(res, en)
	}
	collectSpill(res, stream, engines)
	if a.history != nil {
		res.Reports = a.history.Suppress(res.Reports)
	}
	if err := ctx.Err(); err != nil {
		return res, err
	}
	return res, nil
}

// collectGovernance folds one engine's failure/degradation records
// into the result.
func collectGovernance(res *Result, en *core.Engine) {
	if en.Failure != nil {
		res.Failures = append(res.Failures, en.Failure)
	}
	if len(en.Degradations) > 0 {
		res.Degradations = append(res.Degradations, en.Degradations...)
		res.Degraded = true
	}
}

// Ranked returns the reports ordered by the generic ranking criteria
// (§9): severity class, locality, indirection, then distance +
// conditionals.
func (r *Result) Ranked() []*Report { return rank.Generic(r.Reports) }

// ZRanked returns the reports ordered by statistical rule reliability
// first (§9 "Statistical ranking"), generic criteria within.
func (r *Result) ZRanked() []*Report { return rank.Statistical(r.Reports, r.RuleStats) }

// Grouped returns z-ordered rule groups.
func (r *Result) Grouped() []rank.RuleGroup { return rank.Grouped(r.Reports, r.RuleStats) }

// InferPairs runs the statistical must-pair rule inference of [10]
// over the assembled program.
func (r *Result) InferPairs(filter func(string) bool) []checkers.InferredPair {
	return checkers.InferPairs(r.Program, filter)
}

// Callout re-exports the custom-callout type for native extensions.
type Callout = pattern.CalloutFunc
