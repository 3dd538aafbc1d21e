package mc

// Incremental analysis (DESIGN.md §8): what RunContext does with a
// store — reuse whole-unit analysis results across runs.
//
// The unit of reuse is a weakly-connected component of the call graph
// (prog.Units): the engine's per-function state never crosses unit
// boundaries, so what one engine accumulates between two unit
// boundaries is what a fresh engine would have produced for that unit,
// and merging the per-root report segments in global root order
// reproduces the whole-program run byte for byte. A unit entry is keyed by
// everything its analysis can observe — checker source, core.Options,
// the position-independent declaration environment, the composition
// marks visible at its phase start, and the content hashes of its
// member functions — so invalidation is implicit: an edit re-keys the
// changed functions' units and every untouched unit replays from
// cache. Which checkers key per unit and which as one whole-program
// unit is decided in one place, UnitTree.tasks (unitrun.go).

import (
	"context"
	"strconv"
	"strings"

	"repro/internal/cache"
	"repro/internal/core"
)

// IncrStats reports what a run with a store did (Result.Incr; nil
// without one): per-phase wall times, replay-vs-live volumes, and
// store traffic. It is the daemon's /metrics feed.
type IncrStats struct {
	// Wall-clock nanoseconds per pipeline phase.
	ParseNanos   int64 `json:"parse_nanos"`
	BuildNanos   int64 `json:"build_nanos"`
	AnalyzeNanos int64 `json:"analyze_nanos"`
	MergeNanos   int64 `json:"merge_nanos"`

	// FilesReparsed is the number of source files pass 1 skimmed: all
	// of them, every run (the name dates from a pass-1 AST cache and is
	// pinned by the frozen benchmark/layers.go:162). Bodies are parsed
	// on demand: BodiesParsed counts the functions whose bodies this run
	// parsed, in pass 1 (a body the skim leaves to the parser) or
	// because some checker ran their unit live.
	FilesReparsed int `json:"files_reparsed"`
	BodiesParsed  int `json:"bodies_parsed"`

	// Unit reuse, counted per keyed (checker, unit) pair. UnitsRemote
	// is the subset of UnitsReplayed that a fleet worker filled during
	// this run (a remote fill is replayed from the shared store like
	// any warm hit); replays with UnitsRemote == 0 came from prior runs.
	// UnitsSilent counts the pairs settled without a key: units at each
	// of whose roots the checker's SkipRoot holds (UnitTree.tasks).
	UnitsLive     int `json:"units_live"`
	UnitsReplayed int `json:"units_replayed"`
	UnitsRemote   int `json:"units_remote"`
	UnitsSilent   int `json:"units_silent"`

	// Function analyses (traversal starts) performed live versus
	// replayed from cache — the experiment's headline ratio.
	FuncsAnalyzedLive     int `json:"funcs_analyzed_live"`
	FuncsAnalyzedReplayed int `json:"funcs_analyzed_replayed"`

	// FuncsInvalidated counts the distinct functions of the keyed
	// (checker, unit) tasks the store held no record for when the run
	// probed it — before fleet dispatch, so units a worker then fills
	// count too: what this run could not replay from earlier runs.
	FuncsInvalidated int `json:"funcs_invalidated"`

	// Store traffic (a failed put is otherwise silent); Store: a disk store's shape.
	CacheHits      int64             `json:"cache_hits"`
	CacheMisses    int64             `json:"cache_misses"`
	CachePuts      int64             `json:"cache_puts"`
	CachePutErrors int64             `json:"cache_put_errors"`
	Store          *cache.StoreStats `json:"store,omitempty"`
}

// probeTasks replays tasks from the store in one batched round-trip
// (cache.GetBatch collapses to one POST on a batch-capable backend) and
// counts the keys it found and did not into incr. A record that does
// not decode, or whose root list is not this unit's, is a miss: the
// unit re-runs live and is overwritten. Two checkers loaded from the
// same source derive the same keys; each of their tasks gets the
// record.
func (a *Analyzer) probeTasks(tasks []*unitTask, incr *IncrStats) {
	probed := make([]*unitTask, 0, len(tasks))
	keys := make([]string, 0, len(tasks))
	asked := make(map[string]bool, len(tasks))
	for _, t := range tasks {
		if t.key == "" || t.replayed {
			continue
		}
		probed = append(probed, t)
		if !asked[t.key] {
			asked[t.key] = true
			keys = append(keys, t.key)
		}
	}
	if len(keys) == 0 {
		return
	}
	found := cache.GetBatch(a.cacheStore, keys)
	incr.CacheHits += int64(len(found))
	incr.CacheMisses += int64(len(keys) - len(found))
	// One decoder for the probe: a string its records repeat (a file,
	// function, checker or message) is allocated once.
	var dec cache.UnitDecoder
	for _, t := range probed {
		// Decoded per task, so no two tasks share a report.
		if data, ok := found[t.key]; ok {
			if e, err := dec.Decode(data); err == nil && len(e.Roots) == len(t.roots) {
				t.replay(e)
			}
		}
	}
}

// dispatchRemote offers the phase's cache misses to the fleet unit
// runner (DESIGN.md §15), then re-probes the store: workers fill unit
// keys with complete entries, and whatever appeared replays through
// the ordinary path. Keys the runner did not fill stay misses and run
// locally — worker loss or a runner error never fails the analysis.
// Pre-parsed ASTs (AddAST) have no source text to ship, so such runs
// never dispatch. marks is the run's annotation store at the barrier.
func (a *Analyzer) dispatchRemote(ctx context.Context, tasks []*unitTask, marks *core.Shared, incr *IncrStats) {
	if a.unitRunner == nil || len(a.files) > 0 {
		return
	}
	run := &UnitRun{Files: a.srcs, Options: a.opts, Marks: marks.Events()}
	var pending []*unitTask
	offered := map[string]bool{} // a key two checkers share is offered once
	last := -1                   // tasks arrive grouped by checker
	for _, t := range tasks {
		if t.key == "" || t.replayed {
			continue
		}
		pending = append(pending, t)
		if offered[t.key] {
			continue
		}
		offered[t.key] = true
		if t.ci != last {
			run.Checkers = append(run.Checkers, a.checkers[t.ci].Source)
			last = t.ci
		}
		run.Jobs = append(run.Jobs, UnitJob{Key: t.key, Checker: len(run.Checkers) - 1, Weight: len(t.funcs)})
	}
	if len(pending) == 0 {
		return
	}
	if err := a.unitRunner(ctx, run); err != nil {
		return // every unit falls back to a local run
	}
	a.probeTasks(pending, incr)
	for _, t := range pending {
		if t.replayed {
			incr.UnitsRemote++
		}
	}
}

// taskStats sums one checker's task stats: counters sum, and the first
// Analyses map is adopted and the others' added into it, since every
// task is done with its cut (core.CutUnit gives each its own map). A
// checker that ran as one task, beside a settled one or not, so makes
// no map of its own.
func taskStats(tasks []*unitTask) core.Stats {
	var agg core.Stats
	for _, t := range tasks {
		src := &t.cut.Stats
		agg.Points += src.Points
		agg.Blocks += src.Blocks
		agg.Paths += src.Paths
		agg.PrunedPaths += src.PrunedPaths
		agg.CacheHits += src.CacheHits
		agg.CacheMisses += src.CacheMisses
		agg.FuncCacheHits += src.FuncCacheHits
		agg.FuncFollows += src.FuncFollows
		agg.RecursionCuts += src.RecursionCuts
		agg.FingerprintFallbacks += src.FingerprintFallbacks
		agg.StaticsHeld += src.StaticsHeld
		agg.InstanceOps += src.InstanceOps
		agg.RootsSkipped += src.RootsSkipped
		if agg.Analyses == nil {
			agg.Analyses = src.Analyses
			continue
		}
		for k, v := range src.Analyses {
			agg.Analyses[k] += v
		}
	}
	if agg.Analyses == nil {
		agg.Analyses = map[string]int{}
	}
	return agg
}

// sumAnalyses totals the traversal starts in a stats block.
func sumAnalyses(s *core.Stats) int {
	n := 0
	for _, v := range s.Analyses {
		n += v
	}
	return n
}

// optionsFingerprint renders every Options field into the cache key
// (TestOptionsFingerprintCoversEveryField holds a new field to that).
// The engine's caps are not keyed: a unit that hits one is degraded and
// never stored.
func optionsFingerprint(o Options) string {
	var sb strings.Builder
	sb.WriteString("opts|")
	for _, b := range []bool{o.Interprocedural, o.BlockCache, o.FunctionCache, o.FPP, o.Synonyms, o.Kills} {
		if b {
			sb.WriteByte('1')
		} else {
			sb.WriteByte('0')
		}
	}
	// Budgets re-key the cache even though degraded units are never
	// written: a complete run under a tight budget is still a different
	// computation boundary than an unbudgeted one.
	sb.WriteString("|")
	sb.WriteString(strings.Join([]string{
		strconv.FormatInt(o.Budgets.PathSteps, 10),
		strconv.FormatInt(o.Budgets.FuncBlocks, 10),
		strconv.FormatInt(int64(o.Budgets.FuncTime), 10),
		strconv.FormatInt(o.Budgets.InstanceOps, 10),
	}, ","))
	return sb.String()
}
