package mc

// Incremental analysis (DESIGN.md §8): a cache-aware Run path that
// reuses pass-1 ASTs and whole-unit analysis results across runs.
//
// The unit of reuse is a weakly-connected component of the call graph
// (prog.Units): the engine's per-function state never crosses unit
// boundaries, so running each unit in a fresh engine and merging the
// per-root report segments in global root order reproduces the plain
// shared-engine output byte for byte. A unit entry is keyed by
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
	"time"

	"repro/internal/cache"
	"repro/internal/cc"
	"repro/internal/core"
	"repro/internal/prog"
	"repro/internal/rank"
	"repro/internal/report"
)

// setStore enables the analysis cache on an arbitrary store (e.g.
// cache.NewMemStore() for a resident daemon); Configure is the public
// way in (RunConfig.CacheDir / CacheStore). A nil store disables
// caching.
func (a *Analyzer) setStore(s cache.Store) {
	a.diskStore, _ = s.(interface{ Stats() *cache.StoreStats })
	if s == nil {
		a.cacheStore = nil
		a.cacheMetrics = nil
		return
	}
	a.cacheMetrics = &cache.Metrics{}
	a.cacheStore = cache.WithMetrics(s, a.cacheMetrics)
}

// IncrStats reports what the cache-aware run did: per-phase wall
// times, replay-vs-live volumes, the manifest diff, and store
// traffic. It is the daemon's /metrics feed and the mcbench incr
// experiment's measurement.
type IncrStats struct {
	// Wall-clock nanoseconds per pipeline phase.
	ParseNanos   int64 `json:"parse_nanos"`
	BuildNanos   int64 `json:"build_nanos"`
	AnalyzeNanos int64 `json:"analyze_nanos"`
	MergeNanos   int64 `json:"merge_nanos"`

	// Pass-1 reuse.
	FilesReparsed int `json:"files_reparsed"`
	FilesReplayed int `json:"files_replayed"`

	// Unit reuse, counted per (checker, unit) pair. UnitsRemote is the
	// subset of UnitsReplayed that a fleet worker filled during this
	// run (a remote fill is replayed from the shared store like any
	// warm hit); replays with UnitsRemote == 0 came from prior runs.
	UnitsLive     int `json:"units_live"`
	UnitsReplayed int `json:"units_replayed"`
	UnitsRemote   int `json:"units_remote"`

	// Function analyses (traversal starts) performed live versus
	// replayed from cache — the experiment's headline ratio.
	FuncsAnalyzedLive     int `json:"funcs_analyzed_live"`
	FuncsAnalyzedReplayed int `json:"funcs_analyzed_replayed"`

	// Manifest diff against the previous run under this
	// configuration: functions whose content hash changed (or are
	// new), and the size of their transitive-caller closure.
	FuncsChanged     int `json:"funcs_changed"`
	FuncsInvalidated int `json:"funcs_invalidated"`

	// Store traffic (a failed put is otherwise silent); Store: a disk store's shape.
	CacheHits      int64             `json:"cache_hits"`
	CacheMisses    int64             `json:"cache_misses"`
	CachePuts      int64             `json:"cache_puts"`
	CachePutErrors int64             `json:"cache_put_errors"`
	Store          *cache.StoreStats `json:"store,omitempty"`

	// Summary-section bytes still undecoded, and lazy loads performed:
	// both move when Result.Engines is inspected after the run.
	SummaryBytesDeferred int64 `json:"summary_bytes_deferred"`
	SummariesLoaded      int   `json:"summaries_loaded"`
}

// runCached is Run with the cache enabled. Governance rules
// (DESIGN.md §9): only complete unit runs are stored (runLive,
// unitrun.go), and the manifest is only saved for complete runs.
func (a *Analyzer) runCached(ctx context.Context) (*Result, error) {
	incr := &IncrStats{}

	t0 := time.Now()
	files, err := a.parseSources(incr)
	if err != nil {
		return nil, err
	}
	incr.ParseNanos = time.Since(t0).Nanoseconds()

	t0 = time.Now()
	tree := NewUnitTree(files)
	p, funcHash := tree.Prog, tree.funcHash
	optsFP := optionsFingerprint(a.opts)
	configFP := a.configFingerprint(optsFP)

	// Manifest diff: invalidation accounting for stats and /metrics.
	// Correctness never depends on it — content-addressed keys alone
	// decide reuse.
	manifest := &cache.Manifest{Files: map[string]string{}, Funcs: map[string]string{}}
	for _, f := range files {
		if src, ok := a.srcs[f.Name]; ok {
			manifest.Files[f.Name] = cc.HashBytes([]byte(src))
		} else {
			manifest.Files[f.Name] = cc.HashBytes(cc.EmitFile(f))
		}
	}
	for _, fn := range p.All {
		manifest.Funcs[prog.FuncID(fn)] = funcHash[fn]
	}
	if prev := cache.LoadManifest(a.cacheStore, configFP); prev != nil {
		var changed []*prog.Function
		for _, fn := range p.All {
			if prev.Funcs[prog.FuncID(fn)] != funcHash[fn] {
				changed = append(changed, fn)
			}
		}
		incr.FuncsChanged = len(changed)
		incr.FuncsInvalidated = len(p.DirtyClosure(changed))
	} else {
		incr.FuncsChanged = len(p.All)
		incr.FuncsInvalidated = len(p.All)
	}

	for _, m := range a.sortedMarks() {
		a.shared.Mark(m.name, m.key)
	}

	// Streaming mode (DESIGN.md §12): unit engines spill summaries and
	// evict their caches at retirement, and replayed tasks count
	// straight toward AST release (a replay never touches the AST). A
	// streaming entry carries an empty summary section; either mode
	// reads both entry shapes, so spill on/off share cache keys.
	var stream *streamState
	if a.opts.MaxResidentMB > 0 {
		stream, err = a.newStream(p, optsFP, tree.envFP, funcHash, len(a.checkers))
		if err != nil {
			return nil, err
		}
		defer stream.cleanup()
	}
	incr.BuildNanos = time.Since(t0).Nanoseconds()

	t0 = time.Now()
	// Multi-checker compiled dispatch, shared by every live engine in
	// every phase (the structure is purely syntactic, so one build
	// covers all phases; replayed units never consult it).
	compiled := core.CompileDispatch(p, a.checkers)
	sem := make(chan struct{}, a.parallelism())
	tasksByChecker := make([][]*unitTask, len(a.checkers))
	for _, phase := range core.PlanPhases(a.checkers) {
		// The marks visible to every engine in this phase are exactly
		// those present at the barrier: PlanPhases guarantees no
		// intra-phase write-then-read.
		marksFP := marksFingerprint(a.shared)
		var tasks []*unitTask
		for _, ci := range phase {
			tasks = append(tasks, tree.tasks(ci, a.checkers[ci], a.checkerFPs[ci], a.opts, marksFP)...)
		}

		// Probe the store for every keyed task in one batched
		// round-trip, offer what is still missing to the fleet
		// (DESIGN.md §15), and run what nobody filled.
		a.probeTasks(tasks)
		a.dispatchRemote(ctx, tasks, incr)
		runLive(ctx, sem, tasks, func(t *unitTask) *core.Engine {
			return a.liveEngine(p, t.ci, compiled, stream)
		}, stream == nil, true)

		// Post-phase: replayed marks join the store (live marks landed
		// during the run; ordering within the phase is immaterial —
		// marks are an idempotent set read only after the barrier),
		// and fresh complete results are written back in one batched
		// store round-trip.
		for _, t := range tasks {
			tasksByChecker[t.ci] = append(tasksByChecker[t.ci], t)
			if t.eng != nil {
				continue
			}
			for _, ev := range t.entry.Marks {
				a.shared.Mark(ev.Name, ev.Key)
			}
			if stream != nil {
				// A replayed unit never touches the AST again;
				// count its checker pass toward release now.
				stream.release.done(t.funcs)
			}
		}
		if puts := records(tasks); len(puts) > 0 {
			cache.PutBatch(a.cacheStore, puts) // best effort; failures land in CachePutErrors
		}
	}
	incr.AnalyzeNanos = time.Since(t0).Nanoseconds()

	// Merge per checker: stats and rule counts per unit, report segments
	// per root in global root order — adding them through a fresh report
	// set reproduces the plain single-engine emission stream exactly,
	// also when one unit's roots interleave with another's. Nothing is
	// imported: the merge engine reads summaries lazily (summarySource),
	// and a live unit's engine is dropped here so it stays collectable.
	t0 = time.Now()
	res := &Result{
		Program:   p,
		RuleStats: map[string]rank.RuleStat{},
		Stats:     map[string]core.Stats{},
		Engines:   map[string]*core.Engine{},
	}
	var live []*core.Engine // for collectSpill
	for ci, c := range a.checkers {
		me := core.NewEngineShared(p, c, a.opts, a.shared)
		// AllowSpillReload is safe: a merge engine never traverses.
		me.SetSpill(&summarySource{tasks: tasksByChecker[ci], incr: incr}, prog.FuncID)
		me.AllowSpillReload()
		agg := core.Stats{Analyses: map[string]int{}}
		segs := map[string][]*report.Report{}
		for _, t := range tasksByChecker[ci] {
			e := t.entry
			for _, rr := range e.Roots {
				segs[rr.Root] = rr.Reports
			}
			mergeStats(&agg, &e.Stats)
			for rule, rc := range e.Rules {
				mergeRule(me, rule, rc)
			}
			incr.SummaryBytesDeferred += int64(e.DeferredBytes())
			if t.eng == nil {
				incr.UnitsReplayed++
				incr.FuncsAnalyzedReplayed += sumAnalyses(&e.Stats)
			} else {
				incr.UnitsLive++
				incr.FuncsAnalyzedLive += sumAnalyses(&e.Stats)
				collectGovernance(res, t.eng)
				live = append(live, t.eng)
				t.eng = nil
			}
		}
		for _, root := range p.Roots {
			for _, r := range segs[prog.FuncID(root)] {
				me.Reports.Add(r)
			}
		}
		me.Stats = agg
		res.Reports = append(res.Reports, me.Reports.Reports...)
		for rule, rc := range me.RuleStats {
			prev := res.RuleStats[rule]
			prev.Rule = rule
			prev.Examples += rc.Examples
			prev.Violations += rc.Violations
			res.RuleStats[rule] = prev
		}
		res.Stats[c.Name] = agg
		res.Engines[c.Name] = me
	}
	if a.history != nil {
		res.Reports = a.history.Suppress(res.Reports)
	}
	// The manifest is the invalidation baseline for the next run; a
	// partial run must not become that baseline, so only complete runs
	// save it (DESIGN.md §9).
	if len(res.Failures) == 0 && !res.Degraded && ctx.Err() == nil {
		cache.SaveManifest(a.cacheStore, configFP, manifest) // best effort, likewise
	}
	incr.MergeNanos = time.Since(t0).Nanoseconds()

	incr.CacheHits = a.cacheMetrics.Hits()
	incr.CacheMisses = a.cacheMetrics.Misses()
	incr.CachePuts = a.cacheMetrics.Puts()
	incr.CachePutErrors = a.cacheMetrics.PutErrors()
	if a.diskStore != nil {
		incr.Store = a.diskStore.Stats()
	}
	res.Incr = incr
	collectSpill(res, stream, live)
	if err := ctx.Err(); err != nil {
		return res, err
	}
	return res, nil
}

// probeTasks fills task entries from the store in one batched
// round-trip (cache.GetBatch collapses to one POST on a batch-capable
// backend), parsing only each record's replay section. A record that
// does not decode, or whose root list is not this unit's, is a miss:
// the unit re-runs live and is overwritten.
func (a *Analyzer) probeTasks(tasks []*unitTask) {
	var keys []string
	byKey := map[string]*unitTask{}
	for _, t := range tasks {
		if t.key == "" {
			continue
		}
		keys = append(keys, t.key)
		byKey[t.key] = t
	}
	if len(keys) == 0 {
		return
	}
	for key, data := range cache.GetBatch(a.cacheStore, keys) {
		t := byKey[key]
		if e, err := cache.DecodeUnit(data); err == nil && len(e.Roots) == len(t.roots) {
			t.entry = e
		}
	}
}

// dispatchRemote offers the phase's cache misses to the fleet unit
// runner (DESIGN.md §15), then re-probes the store: workers fill unit
// keys with complete entries, and whatever appeared replays through
// the ordinary path. Keys the runner did not fill stay misses and run
// locally — worker loss or a runner error never fails the analysis.
// Pre-parsed ASTs (AddAST) have no source text to ship, so such runs
// never dispatch.
func (a *Analyzer) dispatchRemote(ctx context.Context, tasks []*unitTask, incr *IncrStats) {
	if a.unitRunner == nil || len(a.files) > 0 {
		return
	}
	run := &UnitRun{Files: a.srcs, Options: a.opts, Marks: a.shared.Events()}
	var pending []*unitTask
	last := -1 // tasks arrive grouped by checker
	for _, t := range tasks {
		if t.key == "" || t.entry != nil || a.checkerSrcs[t.ci] == "" {
			continue
		}
		if t.ci != last {
			run.Checkers = append(run.Checkers, a.checkerSrcs[t.ci])
			last = t.ci
		}
		run.Jobs = append(run.Jobs, UnitJob{Key: t.key, Checker: len(run.Checkers) - 1, Weight: len(t.funcs)})
		pending = append(pending, t)
	}
	if len(pending) == 0 {
		return
	}
	if err := a.unitRunner(ctx, run); err != nil {
		return // every unit falls back to a local run
	}
	a.probeTasks(pending)
	for _, t := range pending {
		if t.entry != nil {
			incr.UnitsRemote++
		}
	}
}

// summarySource is a merge engine's core.SummarySpill: nothing is
// decoded until inspection (SupergraphString) asks for a function, then
// the owning unit's summary section is decoded once. Summaries are
// advisory — never fed to a live traversal — so a section that fails to
// decode renders empty, as does a streaming live unit's (it has none:
// the engine spilled per function, and the ASTs are released anyway).
// Like the engine it serves, a source is not safe for concurrent use.
type summarySource struct {
	tasks []*unitTask
	incr  *IncrStats
	owner map[string]*unitTask // FuncID → owning task, built on first use
}

func (s *summarySource) PutSummary(string, *core.SummaryData) error { return nil }

func (s *summarySource) GetSummary(id string) (*core.SummaryData, bool) {
	if s.owner == nil {
		s.owner = map[string]*unitTask{}
		for _, t := range s.tasks {
			for _, fn := range t.funcs {
				s.owner[prog.FuncID(fn)] = t
			}
		}
	}
	t := s.owner[id]
	if t == nil {
		return nil, false
	}
	e := t.entry
	if n := e.DeferredBytes(); n > 0 {
		s.incr.SummaryBytesDeferred -= int64(n)
		if _, err := e.LoadSummaries(); err == nil {
			s.incr.SummariesLoaded++
		}
	}
	if e.Summaries != nil {
		for _, fd := range e.Summaries.Funcs {
			if fd.Func == id {
				return &core.SummaryData{Funcs: []core.FuncSummaryData{fd}}, true
			}
		}
	}
	return nil, false
}

// mergeStats accumulates src into dst: counters sum, HitBlockLimit
// ORs, Analyses maps add.
func mergeStats(dst, src *core.Stats) {
	dst.Points += src.Points
	dst.Blocks += src.Blocks
	dst.Paths += src.Paths
	dst.PrunedPaths += src.PrunedPaths
	dst.CacheHits += src.CacheHits
	dst.CacheMisses += src.CacheMisses
	dst.FuncCacheHits += src.FuncCacheHits
	dst.FuncFollows += src.FuncFollows
	dst.RecursionCuts += src.RecursionCuts
	dst.InstanceOps += src.InstanceOps
	dst.HitBlockLimit = dst.HitBlockLimit || src.HitBlockLimit
	for k, v := range src.Analyses {
		dst.Analyses[k] += v
	}
}

func mergeRule(me *core.Engine, rule string, rc *core.RuleCount) {
	prev := me.RuleStats[rule]
	if prev == nil {
		prev = &core.RuleCount{}
		me.RuleStats[rule] = prev
	}
	prev.Examples += rc.Examples
	prev.Violations += rc.Violations
}

// sumAnalyses totals the traversal starts in a stats block.
func sumAnalyses(s *core.Stats) int {
	n := 0
	for _, v := range s.Analyses {
		n += v
	}
	return n
}

// optionsFingerprint renders every semantics-affecting Options field
// into the cache key. MaxResidentMB is deliberately excluded: it cannot
// change any output byte, so streaming and in-memory runs share entries
// — which is also what lets the streaming determinism test pin spill-on
// warm runs against spill-off cold ones. A new Options field must be
// rendered here or join that exemption in
// TestOptionsFingerprintCoversEveryField.
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
	sb.WriteString("|")
	sb.WriteString(strings.Join([]string{
		strconv.FormatInt(o.MaxBlocks, 10), strconv.Itoa(o.MaxCallDepth), strconv.Itoa(o.MaxPartitions),
	}, ","))
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

// configFingerprint identifies the analyzer configuration (checker
// set in load order + options) for the manifest.
func (a *Analyzer) configFingerprint(optsFP string) string {
	parts := append([]string{"config", optsFP}, a.checkerFPs...)
	return cache.Key(parts...)
}
