package core

import (
	"context"
	"sync"
	"time"

	"repro/internal/cfg"
	"repro/internal/fpp"
	"repro/internal/metal"
	"repro/internal/pattern"
	"repro/internal/prog"
	"repro/internal/report"
	"repro/internal/slab"
)

// Options selects engine features; the default enables everything the
// paper describes. Ablation benches switch features off individually.
type Options struct {
	// Interprocedural follows calls through the supergraph (§6).
	Interprocedural bool
	// BlockCache enables block-level state caching (§5.2).
	BlockCache bool
	// FunctionCache enables function-summary memoization (§6.2).
	FunctionCache bool
	// FPP enables false path pruning (§8).
	FPP bool
	// Synonyms enables assignment synonym tracking (§8).
	Synonyms bool
	// Kills enables kill-on-redefinition (§8).
	Kills bool
	// Budgets bounds per-path and per-function traversal work
	// (governance layer, DESIGN.md §9). Zero value = unlimited.
	Budgets Budgets
}

// The engine's two caps. Each cut is a truncation, recorded like a
// tripped budget (DegradeCallDepth, DegradePartitions); DESIGN.md §7
// says why no budget replaces them.
const (
	// maxCallDepth bounds interprocedural descent: a call made at this
	// depth below the root is not followed (followCall).
	maxCallDepth = 64
	// maxPartitions caps the disjoint exit-state partitions a caller
	// continues from at a call return (§6.3 step 5); the rest are
	// dropped.
	maxPartitions = 16
)

// DefaultOptions enables the full analysis.
func DefaultOptions() Options {
	return Options{
		Interprocedural: true,
		BlockCache:      true,
		FunctionCache:   true,
		FPP:             true,
		Synonyms:        true,
		Kills:           true,
	}
}

// Stats counts analysis work for the performance experiments.
type Stats struct {
	Points        int64
	Blocks        int64
	Paths         int64
	PrunedPaths   int64
	CacheHits     int64
	CacheMisses   int64
	FuncCacheHits int64
	FuncFollows   int64
	// RecursionCuts, FingerprintFallbacks (blocks past fpCacheCap, once
	// each) and StaticsHeld (file-scope instances held at a call into
	// another file) count approximations that are not cuts (DESIGN.md §7).
	RecursionCuts        int64
	FingerprintFallbacks int64
	StaticsHeld          int64
	// InstanceOps sums the live-instance count over visited program
	// points — the per-point matching work block counts cannot see
	// (Budgets.InstanceOps bounds it per root).
	InstanceOps int64
	// RootsSkipped counts the roots the compiled dispatch proved this
	// checker a no-op over (CompiledDispatch.SkipRoot): never traversed.
	RootsSkipped int64
	// Analyses maps function name to the number of times its CFG
	// traversal was (re)started.
	Analyses map[string]int
}

// RuleCount accumulates z-statistic inputs for one rule (§9).
type RuleCount struct {
	Examples   int
	Violations int
}

// Shared holds state that persists across checkers — the composition
// mechanism of §3.2 (AST/function annotations such as the path-kill
// flags). It is safe for concurrent use: engines running in parallel
// must access it only through Mark and Marked. FnMarks is exported for
// post-run inspection; reading it while engines are running races.
type Shared struct {
	mu      sync.RWMutex
	FnMarks map[string]map[string]bool
}

// NewShared returns an empty shared annotation store.
func NewShared() *Shared { return &Shared{FnMarks: map[string]map[string]bool{}} }

// Mark annotates a function name with a composition flag. Marks are
// idempotent boolean sets, so concurrent writers commute.
func (s *Shared) Mark(name, key string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	m := s.FnMarks[name]
	if m == nil {
		m = map[string]bool{}
		s.FnMarks[name] = m
	}
	m[key] = true
}

// Marked reports whether the function carries the composition flag.
func (s *Shared) Marked(name, key string) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.FnMarks[name][key]
}

// Engine applies one metal checker to a program.
type Engine struct {
	Prog    *prog.Program
	Checker *metal.Checker
	Opts    Options
	Reports *report.Set
	Stats   Stats
	// RuleStats feeds statistical ranking.
	RuleStats map[string]*RuleCount
	// MarkLog records the composition marks this engine emitted, in
	// order. The incremental cache replays it so a warm run's later
	// phases observe the same annotation store (DESIGN.md §8).
	MarkLog []MarkEvent
	// Degradations records every budget or cap truncation and cancellation
	// this run suffered (DESIGN.md §9); empty means the run was
	// complete. A degraded run must never enter the incremental cache.
	Degradations []DegradeEvent
	// Failure is set when the checker panicked mid-run (a metal action
	// or Go-callout bug); reports emitted before the crash survive.
	Failure *CheckerFailure
	// Evictions counts funcInfos evicted at unit retirement
	// (stream.go).
	Evictions int64

	// Run-scoped governance state (see governance.go). govern gates
	// the per-block checks: it is false unless a cancellable context
	// or an active budget is in play, so ungoverned runs pay one
	// branch per block.
	govern       bool
	runCtx       context.Context
	cancelled    bool
	rootHalted   bool
	rootBlocks   int64
	rootInstOps  int64
	rootDeadline time.Time
	ctxPoll      int
	curRoot      string
	degradeSeen  map[string]bool

	shared *Shared
	// funcs is indexed by prog.Function.Index; a nil slot is a function
	// this engine has not entered yet, or one it evicted (stream.go).
	// liveFuncs counts the non-nil slots.
	funcs     []*funcInfo
	liveFuncs int
	// pool holds the funcInfos retirement evicted, cleared, for the
	// functions entered after (summary.go). provSlab is what is left of
	// the chunk their provenance tables are first carved from (addEdge).
	pool     funcPool
	provSlab []*Instance
	// terms interns the FPP terms and fact-set fingerprints of every
	// path environment the engine makes. An environment never crosses a
	// call boundary and ids need only be unique within the table, so
	// one table serves every function; the fpSeen sets that hold its
	// fingerprint ids are the funcInfos', and when retirement has
	// evicted the last of them the table is emptied for the next unit
	// (stream.go).
	terms     fpp.Table
	callouts  pattern.Registry
	nextGroup int32
	// intern numbers the checker's state symbols and the tracked
	// objects, and hash-conses state tuples for the summary caches
	// (intern.go); one table per engine, engines are single-goroutine.
	// Every funcInfo points at it.
	intern interner
	// initG is the initial global state's symbol; transIdx indexes the
	// checker's transitions by source state (numberStates), so the
	// per-point hot loop neither rescans the transition list nor hashes a
	// state.
	initG    int32
	transIdx stateIdx
	// compiled is the multi-checker dispatch structure (compile.go),
	// shared read-only across engines; checkerIdx is this engine's
	// checker's index in its checker list. SetCompiled fills transIdx's
	// entry ids from it. An engine that starts a root without
	// SetCompiled compiles its own checker alone (ensureCompiled).
	compiled   *CompiledDispatch
	checkerIdx int
	// Retirement (stream.go): rootsRun counts the roots run per unit,
	// by unit index (nil = this engine never retires); onRetire
	// notifies the mc releaser. dfsDirty is set when a root is
	// traversed and cleared with the DFS's buffers.
	rootsRun []int32
	onRetire func(*prog.Unit)
	dfsDirty bool
	// traversed, when set, is told of every successor pair the DFS
	// follows within a function: a block entered from the block below it
	// on the backtrace. These are the pairs relax composes suffix
	// summaries over (Figure 6), and the pairs a test recomputes them on.
	traversed func(from, to *cfg.Block)
	// auditHit, when set, is told of every function-summary hit: the
	// callee and the entry tuple its summary answered for, which a test
	// traverses afresh to audit the summary (followCall).
	auditHit func(callee *prog.Function, t Tuple)

	// Memory whose lifetime is the DFS's is the engine's, not re-made per
	// split, per point or per call (DESIGN.md §5).
	//
	// backtrace and callStack are the DFS's two stacks; they persist
	// across roots. A pathState holds a frame of them by index and a
	// split copies neither. One engine is one goroutine and siblings run
	// strictly one after another: a state only ever reads entries below
	// its own top, and a later sibling overwriting index n cannot be
	// observed by an earlier one, which has already returned.
	backtrace []traceEntry
	callStack []*prog.Function
	// insts and cells are the slabs every instance and every why-trace
	// cell is taken from (Engine.clone, Engine.push): a split, a call's
	// refine and restore and a synonym copy an instance into the next
	// element instead of a heap object of its own. An element is never
	// handed out twice; its chunk lives as long as anything points into
	// it, a path's active set, a provenance table (funcInfo.provs) or a
	// Tuple.Prov.
	insts slab.Slab[Instance]
	cells slab.Slab[traceList]
	// frames is the pool of path states whose traversal has returned
	// (frame, release). A frame keeps its instance, pending and fact
	// arrays, so a split copies into arrays an earlier path grew.
	frames []*pathState
	// ctx is the one pattern-match context, refilled at every point
	// (matchCtx). snapshot is the copy of the active set the dispatch
	// loops range over while transitions edit the set itself; the loops
	// that use it never nest.
	ctx      pattern.Ctx
	snapshot []*Instance
	// prior is the one-entry binding a variable-specific match starts
	// from, {var: the instance's object}, refilled for every Match
	// (priorFor). Match never writes its prior and reads it only while
	// it runs; at cap 1 an append to it would copy.
	prior [1]pattern.Bound
	// act is the one action context, refilled for every fired
	// transition (runTransitionActions).
	act actionCtx
	// outs is partitionResults' buffer of distinct out tuples; parts is
	// the stack of exit partitions and next its scratch for a product
	// step. followCall pops the partitions it restored (and their tuples
	// from the tuple stack); a forked continuation re-enters runFrom and,
	// at its next call, pushes above them.
	outs  []Tuple
	parts []partition
	next  []partition
	// refined and saved are followCall's stacks of the instances a call
	// hands the callee and those it holds across the call: each call
	// pushes its own above its caller's and pops them when it returns.
	refined, saved []*Instance
	// report is emitReport's scratch for the report it keeps.
	report reportScratch
	// tuples is the stack the block recorders' lists are carved from: a
	// traversal pushes its entry tuples (enter), a block's kill
	// list grows on top (noteKill), a call return pushes its partitions'
	// tuples and pops them once restored, and a traversal pops and clears
	// what it pushed when it returns. Every root starts it empty.
	tuples []Tuple
}

// stackInitCap is the capacity both DFS stacks start with; they grow
// once per engine, not once per root.
const stackInitCap = 32

// NewEngine builds an engine for one checker over a program.
func NewEngine(p *prog.Program, c *metal.Checker, opts Options) *Engine {
	return NewEngineShared(p, c, opts, NewShared())
}

// NewEngineShared builds an engine that shares annotations with other
// checkers (checker composition, §3.2).
func NewEngineShared(p *prog.Program, c *metal.Checker, opts Options, shared *Shared) *Engine {
	en := &Engine{
		Prog:      p,
		Checker:   c,
		Opts:      opts,
		Reports:   &report.Set{},
		RuleStats: map[string]*RuleCount{},
		shared:    shared,
		funcs:     make([]*funcInfo, len(p.All)),
		backtrace: make([]traceEntry, 0, stackInitCap),
		callStack: make([]*prog.Function, 0, stackInitCap),
	}
	en.intern.init()
	en.govern = opts.Budgets.Active()
	en.Stats.Analyses = map[string]int{}
	en.initG, en.transIdx = numberStates(&en.intern, c)
	en.callouts = pattern.Registry{}
	for k, v := range pattern.Builtins() {
		en.callouts[k] = v
	}
	for k, v := range c.Callouts {
		en.callouts[k] = v
	}
	en.callouts["mc_fn_marked"] = func(ctx *pattern.Ctx, args []pattern.CalloutArg) bool {
		if len(args) != 2 || !args[1].IsStr {
			return false
		}
		name := fnNamed(args[0].Arg, args[0].Binding)
		return name != "" && en.shared.Marked(name, args[1].Str)
	}
	return en
}

// SetCompiled attaches the run-wide compiled dispatch structure built
// by CompileDispatch; idx is this engine's checker's index in the
// compiled checker list. Must be called before the engine runs.
func (en *Engine) SetCompiled(cd *CompiledDispatch, idx int) {
	if cd.checkers[idx] != en.Checker {
		panic("core: SetCompiled: the dispatch was not compiled for this engine's checker")
	}
	en.compiled = cd
	en.checkerIdx = idx
	for i := range en.transIdx.rows {
		src := &en.transIdx.rows[i]
		for j := range src.rules {
			src.entries[j] = cd.firstEntry[idx] + src.rules[j].pos
		}
	}
}

// ensureCompiled gives an engine nobody called SetCompiled on the
// dispatch of its own checker, so that there is one gate (mayFire) and
// one root-skip rule however the engine was set up.
func (en *Engine) ensureCompiled() {
	if en.compiled == nil {
		en.SetCompiled(CompileDispatch(en.Prog, []*metal.Checker{en.Checker}), 0)
	}
}

// MarkFn annotates a function name with a composition flag. The mark
// is also appended to the engine's MarkLog for cache replay.
func (en *Engine) MarkFn(name, key string) {
	en.MarkLog = append(en.MarkLog, MarkEvent{Name: name, Key: key})
	en.shared.Mark(name, key)
}

// countRule accumulates an example or violation for a rule (§9). The
// fact is probed as the caller's bytes; only a rule not seen before
// copies it into a key.
func (en *Engine) countRule(rule []byte, example bool) {
	rc := en.RuleStats[string(rule)]
	if rc == nil {
		rc = &RuleCount{}
		en.RuleStats[string(rule)] = rc
	}
	if example {
		rc.Examples++
	} else {
		rc.Violations++
	}
}

func (en *Engine) funcInfo(fn *prog.Function) *funcInfo {
	fi := en.funcs[fn.Index]
	if fi == nil {
		fi = en.newFuncInfo(fn.Graph)
		en.funcs[fn.Index] = fi
		en.liveFuncs++
	}
	return fi
}

// Analyses returns how many times the named function's traversal was
// started (experiment E2).
func (en *Engine) Analyses(name string) int { return en.Stats.Analyses[name] }
