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
	"sort"
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

// Analyzer assembles sources and checkers and runs the engine. It holds
// configuration only: every run starts from it and nothing else, so two
// runs of one analyzer are the same run.
type Analyzer struct {
	opts     Options
	srcs     map[string]string
	files    []*cc.File
	checkers []*metal.Checker
	history  *report.History
	// marks are the pre-annotations (MarkFunction), e.g. blocking
	// functions for the block checker.
	marks []MarkEvent
	// jobs is the worker count for parallel parsing and checker
	// execution; 0 means runtime.GOMAXPROCS(0).
	jobs int
	// Incremental cache (RunConfig.CacheStore); nil keys and stores
	// nothing.
	cacheStore cache.Store
	// unitRunner, when set, is offered each phase's cache-miss units
	// before they run locally (RunConfig.UnitRunner; DESIGN.md §15).
	unitRunner func(ctx context.Context, run *UnitRun) error
}

// NewAnalyzer returns an analyzer with default options.
func NewAnalyzer() *Analyzer {
	return &Analyzer{
		opts: core.DefaultOptions(),
		srcs: map[string]string{},
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

// SourcePaths expands command-line inputs into the source names AddFile
// registers for them: a directory becomes its .c files (not recursive),
// every path is cleaned, and a path named twice is an error. The names
// come back sorted, the order a run parses sources in.
func SourcePaths(inputs []string) ([]string, error) {
	var out []string
	seen := map[string]bool{}
	for _, in := range inputs {
		paths := []string{in}
		if info, err := os.Stat(in); err == nil && info.IsDir() {
			entries, err := os.ReadDir(in)
			if err != nil {
				return nil, err
			}
			paths = nil
			for _, e := range entries {
				if !e.IsDir() && filepath.Ext(e.Name()) == ".c" {
					paths = append(paths, filepath.Join(in, e.Name()))
				}
			}
		}
		for _, p := range paths {
			p = filepath.Clean(p)
			if seen[p] {
				return nil, fmt.Errorf("duplicate source %s", p)
			}
			seen[p] = true
			out = append(out, p)
		}
	}
	sort.Strings(out)
	return out, nil
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
func (a *Analyzer) LoadChecker(src string) error { return a.LoadCheckerWithCallouts(src, nil) }

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
	a.marks = append(a.marks, MarkEvent{Name: name, Key: key})
}

// SetHistory installs a prior version's reports; matching reports are
// suppressed (§8 "History").
func (a *Analyzer) SetHistory(old []*Report) { a.history = report.NewHistory(old) }

// Verify does nothing and its two counts are always zero: infeasible
// paths are pruned during traversal (DESIGN.md §8), so no pass after
// the run has anything to judge. It stays only because the frozen
// benchmark/layers.go:630 calls it and reads Done and Unknown.
func (a *Analyzer) Verify(*Result, int) (st struct{ Done, Unknown int64 }) { return st }

// Result is one analysis run's output.
type Result struct {
	// Program is the assembled whole-program view. A finished run has
	// retired it (DESIGN.md §12): names, files, parameters and
	// call-graph links remain, function bodies and CFGs do not.
	Program *prog.Program
	// Raw reports in emission order, after history suppression.
	Reports []*Report
	// RuleStats holds z-statistic evidence per rule.
	RuleStats map[string]rank.RuleStat
	// Stats aggregates engine counters per checker.
	Stats map[string]core.Stats
	// Incr reports what a run with a store replayed versus analyzed
	// live; nil without one.
	Incr *IncrStats
	// Spill reports what the run retired (evictions, ASTs released;
	// DESIGN.md §12).
	Spill *SpillStats
	// Failures lists checkers that panicked mid-run (a metal action or
	// Go-callout bug). A failed checker keeps the reports it emitted
	// before crashing; the remaining checkers run to completion.
	Failures []*CheckerFailure
	// Degraded reports that some traversal was truncated — a budget or
	// cap tripped or the context was cancelled. Degradations records
	// exactly what was cut. Degraded results are never cached.
	Degraded     bool
	Degradations []DegradeEvent
}

// RunContext runs pass 1 (it fans out over a worker pool), assembles
// the program, and applies each loaded checker: one engine
// per checker, engines of a phase concurrently, phases ordered around
// the composition barrier. Results are merged deterministically in
// checker load order, so the output is bit-identical at every
// parallelism level; see DESIGN.md §5 "Engine parallelism".
//
// There is one body for every run (DESIGN.md §8). With a store, each
// checker's work is one keyed task per call-graph unit: units whose
// record the store (or a fleet worker) holds replay, the rest run on the
// checker's engine in order, cut into records at the unit boundaries;
// only those units' bodies are parsed and built. Without one, nothing
// is keyed and each checker's work is one task, the whole program.
//
// The context cancels the analysis mid-traversal, and its deadline is
// the run's time bound (context.WithTimeout): the engines stop at the
// next governance poll (within ~256 blocks), and RunContext returns
// the partial Result alongside ctx.Err(). The partial result
// carries a DegradeCancelled record per interrupted checker, so
// callers can distinguish "complete" from "cut short". A checker that
// panics is contained: it lands in Result.Failures and the remaining
// checkers finish normally (DESIGN.md §9). Only complete units are
// stored (runLive, unitrun.go).
func (a *Analyzer) RunContext(ctx context.Context) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
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
	cached := a.cacheStore != nil
	incr := &IncrStats{} // Result.Incr when cached

	// Pass 1. With a store it skims each body (DESIGN.md §8): a unit's
	// bodies are parsed and built only when some checker's task for the
	// unit runs live. Without one, every body is parsed and built here.
	t0 := time.Now()
	var files []*cc.File
	var err error
	if cached {
		files, err = a.skimSources(incr)
	} else {
		files, err = a.parseSources(incr)
	}
	if err != nil {
		return nil, err
	}
	incr.ParseNanos = time.Since(t0).Nanoseconds()

	t0 = time.Now()
	var tree *UnitTree
	var missed []bool // by Function.Index: in a keyed task the store lacked, counted once into FuncsInvalidated
	if cached {
		tree = NewUnitTree(files)
		missed = make([]bool, len(tree.Prog.All))
	} else {
		tree = &UnitTree{Prog: prog.Build(files...)}
	}
	p := tree.Prog
	defer p.ReleaseFrontEnd()
	for _, fn := range p.All {
		if fn.Graph != nil {
			incr.BodiesParsed++ // parsed by pass 1
		}
	}
	shared := a.preMarked()

	// Retirement (DESIGN.md §12): engines drop a unit's state when its
	// last root finishes, and its ASTs go once every checker pass is
	// done with it (a replayed unit at once: it never touches the AST).
	release := &astReleaser{passes: int32(len(a.checkers)), done: make([]int32, len(p.Units()))}
	incr.BuildNanos = time.Since(t0).Nanoseconds()

	t0 = time.Now()
	// Multi-checker compiled dispatch (DESIGN.md §11): one automaton
	// over the union of all loaded checkers' patterns, built once per
	// run and shared read-only by every engine (the structure is purely
	// syntactic, so one build covers all phases).
	compiled := core.CompileDispatch(p, a.checkers)
	sem := make(chan struct{}, a.parallelism())
	engines := make([]*core.Engine, len(a.checkers))
	tasksByChecker := make([][]*unitTask, len(a.checkers))
	for _, phase := range core.PlanPhases(a.checkers) {
		// The marks visible to every engine in this phase are exactly
		// those present at the barrier: PlanPhases guarantees no
		// intra-phase write-then-read.
		var tasks []*unitTask
		for _, ci := range phase {
			tasksByChecker[ci] = tree.tasks(ci, a.checkers[ci], a.opts, shared)
			tasks = append(tasks, tasksByChecker[ci]...)
		}

		// Probe the store for every keyed task in one batched
		// round-trip, offer what is still missing to the fleet
		// (DESIGN.md §15), and run what nobody filled.
		a.probeTasks(tasks, incr)
		for _, t := range tasks {
			if t.key != "" && !t.replayed {
				for _, fn := range t.funcs {
					if !missed[fn.Index] {
						missed[fn.Index] = true
						incr.FuncsInvalidated++
					}
				}
			}
		}
		a.dispatchRemote(ctx, tasks, shared, incr)
		if cached {
			parsed, err := tree.build(tasks, a.parallelism(), func(int) *core.CompiledDispatch { return compiled })
			if incr.BodiesParsed += parsed; err != nil {
				return nil, err
			}
		}
		runLive(ctx, sem, tasks, func(ci int) *core.Engine {
			engines[ci] = a.liveEngine(p, ci, compiled, shared)
			return engines[ci]
		}, release.pass)

		// Post-phase: replayed marks join the store (live marks landed
		// during the run; ordering within the phase is immaterial —
		// marks are an idempotent set read only after the barrier),
		// and fresh complete records are written back in one batched
		// store round-trip.
		for _, t := range tasks {
			if !t.replayed {
				continue
			}
			for _, ev := range t.cut.Marks {
				shared.Mark(ev.Name, ev.Key)
			}
			for _, u := range t.units {
				release.pass(u)
			}
		}
		if puts := records(tasks); len(puts) > 0 {
			// Best effort: a failed call is counted, not returned.
			incr.CachePuts += int64(len(puts))
			if cache.PutBatch(a.cacheStore, puts) != nil {
				incr.CachePutErrors++
			}
		}
	}
	incr.AnalyzeNanos = time.Since(t0).Nanoseconds()

	// Merge per checker: stats and rule counts per unit, report segments
	// per root in global root order. That is the single whole-program
	// engine's emission stream exactly, also when one unit's roots
	// interleave with another's: each segment was deduplicated against
	// its own unit's earlier roots where it was produced, and a report's
	// identity carries its function and position, so segments of
	// different units cannot repeat one another.
	t0 = time.Now()
	res := &Result{
		Program:   p,
		RuleStats: map[string]rank.RuleStat{},
		Stats:     map[string]core.Stats{},
		Spill:     &SpillStats{},
	}
	for ci, c := range a.checkers {
		agg := core.Stats{Analyses: map[string]int{}}
		segs := map[*prog.Function][]*Report{}
		for _, t := range tasksByChecker[ci] {
			for _, rr := range t.runs {
				if len(rr.Reports) > 0 {
					segs[rr.Root] = rr.Reports
				}
			}
			mergeStats(&agg, &t.cut.Stats)
			for rule, rc := range t.cut.Rules {
				prev := res.RuleStats[rule]
				prev.Rule = rule
				prev.Examples += rc.Examples
				prev.Violations += rc.Violations
				res.RuleStats[rule] = prev
			}
			res.Degradations = append(res.Degradations, t.cut.Degradations...)
			if t.replayed {
				incr.UnitsReplayed++
				incr.FuncsAnalyzedReplayed += sumAnalyses(&t.cut.Stats)
			} else {
				incr.UnitsLive++
				incr.FuncsAnalyzedLive += sumAnalyses(&t.cut.Stats)
			}
		}
		for _, root := range p.Roots {
			res.Reports = append(res.Reports, segs[root]...)
		}
		res.Stats[c.Name] = agg
		if en := engines[ci]; en != nil {
			if en.Failure != nil {
				res.Failures = append(res.Failures, en.Failure)
			}
			res.Spill.Evictions += en.Evictions
		}
	}
	res.Spill.ASTsReleased = release.released // every engine has finished
	res.Degraded = len(res.Degradations) > 0
	if a.history != nil {
		res.Reports = a.history.Suppress(res.Reports)
	}
	if cached {
		incr.MergeNanos = time.Since(t0).Nanoseconds()
		if ds, ok := a.cacheStore.(interface{ Stats() *cache.StoreStats }); ok {
			incr.Store = ds.Stats()
		}
		res.Incr = incr
	}
	if err := ctx.Err(); err != nil {
		return res, err
	}
	return res, nil
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
// over the registered sources: it parses them and assembles the
// program, and needs neither a checker nor a run.
func (a *Analyzer) InferPairs(filter func(string) bool) ([]checkers.InferredPair, error) {
	files, err := a.parseSources(&IncrStats{})
	if err != nil {
		return nil, err
	}
	return checkers.InferPairs(prog.Build(files...), filter), nil
}

// Supergraph renders the block and suffix summaries of the named
// function (Figure 5 style) under each loaded checker, by checker name.
// Inspection is a run of its own: it parses the registered sources,
// builds the program once, and runs one engine per checker in
// core.PlanPhases order over one annotation store seeded with the
// pre-annotations, none of them retiring anything — what a run's engine
// holds for the function just before it retires the function's unit.
// A function the program does not define renders nil.
func (a *Analyzer) Supergraph(ctx context.Context, fn string) (map[string]string, error) {
	files, err := a.parseSources(&IncrStats{})
	if err != nil {
		return nil, err
	}
	p := prog.Build(files...)
	if p.Lookup(fn) == nil {
		return nil, nil
	}
	shared := a.preMarked()
	out := map[string]string{}
	for _, phase := range core.PlanPhases(a.checkers) {
		for _, ci := range phase {
			en := core.NewEngineShared(p, a.checkers[ci], a.opts, shared)
			en.RunContext(ctx)
			out[a.checkers[ci].Name] = en.SupergraphString(fn)
		}
	}
	return out, ctx.Err()
}

// Callout re-exports the custom-callout type for native extensions.
type Callout = pattern.CalloutFunc
