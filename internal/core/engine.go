package core

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"

	"repro/internal/cc"
	"repro/internal/cfg"
	"repro/internal/fpp"
	"repro/internal/metal"
	"repro/internal/pattern"
	"repro/internal/prog"
	"repro/internal/report"
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
	// functions entered after (summary.go).
	pool funcPool
	// terms interns the FPP terms and fact-set fingerprints of every
	// path environment the engine makes. An environment never crosses a
	// call boundary and ids need only be unique within the table, so
	// one table serves every function; the fpSeen sets that hold its
	// fingerprint ids are the funcInfos', and when retirement has
	// evicted the last of them the table is emptied for the next unit
	// (stream.go).
	terms     fpp.Table
	callouts  pattern.Registry
	nextGroup int
	// intern numbers the checker's state symbols and the tracked
	// objects, and hash-conses state tuples for the summary caches
	// (intern.go); one table per engine, engines are single-goroutine.
	intern *interner
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
	// notifies the mc releaser.
	rootsRun []int32
	onRetire func(*prog.Unit)

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
	// outs and parts are partitionResults' buffers. parts is handed to
	// followCall, which copies it before it forks: each continuation
	// re-enters runFrom and, at the next call, this buffer.
	outs  []outTuple
	parts []partition
	// tuples is the stack the block recorders' entry lists are carved
	// from (blockRec.start): a traversal pushes its entry tuples and pops
	// and clears them when it returns, and every root starts it empty.
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
		intern:    newInterner(),
		backtrace: make([]traceEntry, 0, stackInitCap),
		callStack: make([]*prog.Function, 0, stackInitCap),
	}
	en.govern = opts.Budgets.Active()
	en.Stats.Analyses = map[string]int{}
	en.initG, en.transIdx = numberStates(en.intern, c)
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
		var name string
		if args[0].IsStr {
			name = args[0].Str
		} else if args[0].Bound && args[0].Binding.Expr != nil {
			switch e := args[0].Binding.Expr.(type) {
			case *cc.CallExpr:
				if id, ok := e.Fun.(*cc.Ident); ok {
					name = id.Name
				}
			case *cc.Ident:
				name = e.Name
			}
		}
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

// countRule accumulates an example or violation for a rule (§9).
func (en *Engine) countRule(rule string, example bool) {
	rc := en.RuleStats[rule]
	if rc == nil {
		rc = &RuleCount{}
		en.RuleStats[rule] = rc
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

// ---------------------------------------------------------------------------
// Path state
// ---------------------------------------------------------------------------

// pendingBranch is a matched path-specific transition awaiting branch
// resolution (§3.2).
type pendingBranch struct {
	r *rule
	// v and obj name the triggering instance; v 0 for creation.
	v, obj int32
	// bindings is a creation's own copy: the match's result is gone at
	// the next match (pattern.Ctx) and the branch resolves at block end.
	bindings pattern.Bindings
	neg      bool // matched subexpression appears under negation
}

// pathState is the per-path analysis state: the extension state, the
// FPP fact environment, and the traversal bookkeeping. Each successor of
// a split gets its own copy so "mutations revert when the extension
// backtracks" (§5.1), made in a frame from the engine's pool (split).
type pathState struct {
	sm SM
	// env is the frame's own: a split copies the facts into its array.
	env fpp.Env
	fn  *prog.Function
	// btBase and btTop delimit this state's frame of the engine's
	// backtrace stack: the blocks traversed so far in fn on this path.
	// Its call stack is the first callDepth+1 entries of the engine's.
	btBase, btTop int
	callDepth     int
	killPath      bool
	pathClass     report.Class
	pending       []pendingBranch
	// steps counts program points visited along this path, bulk-added
	// at block entry, for the per-path budget (governance layer).
	steps int64
}

// frame takes a path state from the engine's pool, or makes one. Its
// arrays keep their capacity; every field is the caller's to set.
func (en *Engine) frame() *pathState {
	n := len(en.frames)
	if n == 0 {
		return &pathState{}
	}
	st := en.frames[n-1]
	en.frames = en.frames[:n-1]
	return st
}

// release returns a state whose traversal has returned to the pool.
func (en *Engine) release(st *pathState) { en.frames = append(en.frames, st) }

// enter takes a frame for a new traversal of fn — a root (caller nil) or
// a followed callee: nothing tracked, nothing pending, no facts, and its
// parts of the engine's stacks beginning at the caller's tops.
func (en *Engine) enter(caller *pathState, fn *prog.Function, g int32) *pathState {
	st := en.frame()
	*st = pathState{sm: SM{g: g, Active: st.sm.Active[:0]}, env: st.env, fn: fn, pending: st.pending[:0]}
	st.env.Reset(&en.terms)
	if caller != nil {
		st.btBase, st.btTop = caller.btTop, caller.btTop
		st.callDepth = caller.callDepth + 1
		st.pathClass = caller.pathClass
	}
	return st
}

// split takes a frame that continues st's path: every field copied, the
// facts and pending transitions into the frame's own arrays. Its
// instance array is left empty for the caller to fill: a successor of a
// branch clones st's instances into it (SM.cloneActive), a call-return
// partition restores its own.
func (en *Engine) split(st *pathState) *pathState {
	ns := en.frame()
	env, active, pending := ns.env, ns.sm.Active[:0], ns.pending[:0]
	*ns = *st
	ns.env = env
	ns.env.CopyFrom(&st.env)
	ns.sm.Active = active
	ns.pending = append(pending, st.pending...)
	return ns
}

// setPathClass keeps the highest-priority annotation seen on the
// path; any annotation beats none.
func (st *pathState) setPathClass(c report.Class) {
	if st.pathClass == report.ClassNone || c.Rank() < st.pathClass.Rank() {
		st.pathClass = c
	}
}

// ---------------------------------------------------------------------------
// Block recorder
// ---------------------------------------------------------------------------

// blockRec tracks one traversal of one block so its summary edges can
// be recorded at block end. Instances are told apart by (v, obj), not
// by pointer, so the recorder survives state cloning at mid-block call
// forks; the live set is a handful, so the lists are scanned.
type blockRec struct {
	entryG int32
	fp     uint32
	// entry holds the tuple of every instance active at block entry: a
	// cap-limited frame of the engine's tuple stack (start), valid until
	// the traversal that carved it returns.
	entry []Tuple
	// kills holds a stop tuple per instance removed during the block, in
	// order: the last one for an entry instance ends its transition edge,
	// the others are instances created and then killed within the block
	// (add edges ending in stop).
	kills []Tuple
}

func sameObj(t *Tuple, v, obj int32) bool { return t.v == v && t.obj == obj }

// lastOf returns the last tuple of the list about the object, or nil.
func lastOf(ts []Tuple, v, obj int32) *Tuple {
	for i := len(ts) - 1; i >= 0; i-- {
		if sameObj(&ts[i], v, obj) {
			return &ts[i]
		}
	}
	return nil
}

// start fills in the traversal record, which is a local of
// traverseBlock ("rec does not escape", -gcflags=-m), and carves its
// entry list from the top of the engine's tuple stack, which it returns
// grown. Most traversals of most blocks carry no active instances and
// kill nothing, and then the record allocates nothing; the others reuse
// the stack's array.
func (rec *blockRec) start(sm *SM, fp uint32, stack []Tuple) []Tuple {
	rec.entryG, rec.fp = sm.g, fp
	base := len(stack)
	for _, in := range sm.Active {
		if in.Inactive {
			continue
		}
		if prev := lastOf(stack[base:], in.v, in.obj); prev != nil {
			*prev = instTuple(sm.g, in)
		} else {
			stack = append(stack, instTuple(sm.g, in))
		}
	}
	rec.entry = stack[base:len(stack):len(stack)]
	return stack
}

func (r *blockRec) clone() *blockRec {
	return &blockRec{entryG: r.entryG, fp: r.fp, entry: slices.Clone(r.entry), kills: slices.Clone(r.kills)}
}

// noteKill records an instance's removal for summary generation.
func (r *blockRec) noteKill(g int32, in *Instance) {
	r.kills = append(r.kills, Tuple{tupleKey: tupleKey{g: g, v: in.v, val: symStop, obj: in.obj}, ObjExpr: in.ObjExpr})
}

// ---------------------------------------------------------------------------
// Traversal
// ---------------------------------------------------------------------------

// traverseBlock is the heart of Figure 4: the caching DFS. It is also
// the governance choke point: cancellation and budget checks gate
// every block so a wedged traversal stops within one poll interval.
func (en *Engine) traverseBlock(st *pathState, b *cfg.Block) {
	if en.govern && (en.halted() || en.overBudget(st, b)) {
		return
	}
	en.Stats.Blocks++
	bi := en.funcInfo(st.fn).info(b)

	// Block-level cache check (§5.2): drop every state tuple already
	// covered by the block summary; abort the path when nothing
	// remains. Coverage is refined by the FPP fact fingerprint so that
	// paths with different branch facts are not conflated (see
	// blockInfo.coversUnder).
	var fp uint32
	if en.Opts.FPP {
		fp = st.env.Fingerprint()
	}
	if en.Opts.BlockCache {
		// The survivors are compacted into the frame's own array (DESIGN.md
		// §5): nothing reads a frame's instances after traverseBlock
		// returns, so a full hit may leave the array scrambled.
		allHit, live := true, false
		keep := st.sm.Active[:0]
		for _, in := range st.sm.Active {
			if in.Inactive {
				keep = append(keep, in)
				continue
			}
			live = true
			if bi.coversUnder(instTuple(st.sm.g, in), fp) {
				en.Stats.CacheHits++
			} else {
				allHit = false
				keep = append(keep, in)
			}
		}
		if !live {
			// The placeholder is the extension state.
			allHit = bi.coversUnder(placeholderTuple(st.sm.g), fp)
			if allHit {
				en.Stats.CacheHits++
			}
		}
		if allHit {
			relax(en.backtrace[st.btBase:st.btTop], bi, false, st.fn.NonParamLocals)
			return
		}
		en.Stats.CacheMisses++
		st.sm.Active = keep
	}

	en.backtrace = append(en.backtrace[:st.btTop], traceEntry{block: b, info: bi})
	st.btTop++
	var rec blockRec
	base := len(en.tuples)
	en.tuples = rec.start(&st.sm, fp, en.tuples)

	if b.Exit {
		en.endOfPath(st, &rec)
		en.finishBlock(st, b, bi, &rec)
	} else {
		en.runFrom(st, b, bi, &rec, 0)
	}
	// Every traversal below this one has popped its own entries.
	clear(en.tuples[base:])
	en.tuples = en.tuples[:base]
}

// runFrom processes block points starting at index idx, then finishes
// the block. Mid-block call returns with multiple disjoint exit states
// fork here: each partition continues the remaining points
// independently (§6.3 step 6).
func (en *Engine) runFrom(st *pathState, b *cfg.Block, bi *blockInfo, rec *blockRec, idx int) {
	for i := idx; i < len(b.Points); i++ {
		pt := b.Points[i]
		en.Stats.Points++
		fired := en.applyExtension(st, b, rec, pt, false)
		if st.killPath {
			en.finishBlock(st, b, bi, rec)
			return
		}
		switch x := pt.(type) {
		case *cc.AssignExpr:
			en.handleAssign(st, rec, x, pt)
		case *cc.UnaryExpr:
			if x.Op == cc.TokInc || x.Op == cc.TokDec {
				en.handleMutation(st, rec, x.X)
			}
		case *cc.CallExpr:
			if !fired && en.Opts.Interprocedural {
				if forked := en.followCall(st, b, bi, rec, x, i); forked {
					return
				}
			}
		}
	}
	// Statement point: a block ending in "return [expr];" offers one
	// synthetic point where return-statement patterns match (§4).
	if b.IsReturn {
		en.Stats.Points++
		en.applyExtension(st, b, rec, b.ReturnX, true)
		if st.killPath {
			en.finishBlock(st, b, bi, rec)
			return
		}
	}
	en.finishBlock(st, b, bi, rec)
}

// finishBlock records the block's summary edges (§5.2) and descends
// into the successors (or ends the path).
func (en *Engine) finishBlock(st *pathState, b *cfg.Block, bi *blockInfo, rec *blockRec) {
	gEnd := st.sm.g
	// Global-instance edge, recorded on every traversal (§6.2 needs it
	// to relax add edges through gstate-preserving blocks). It joins
	// the cache-relevant transition edges only when the placeholder
	// actually was the extension state.
	fi, ix := bi.fi, en.intern
	ghost := ix.edge(placeholderTuple(rec.entryG), placeholderTuple(gEnd))
	bi.gstate.add(fi, ghost)
	if len(rec.entry) == 0 {
		bi.trans.add(fi, ghost)
		en.noteSeen(bi, placeholderTuple(rec.entryG), rec.fp)
	}
	// Transition edges for each entry tuple ("Each state tuple that
	// reaches a block generates exactly one transition edge, where the
	// transition can be the identity").
	for i := range rec.entry {
		from := &rec.entry[i]
		en.noteSeen(bi, *from, rec.fp)
		// Where the instance went: killed, still here, or out of scope
		// some other way (e.g. dropped at a call boundary) — a stop edge.
		to := *from
		to.g, to.val = gEnd, symStop
		if stop := lastOf(rec.kills, from.v, from.obj); stop != nil {
			to = *stop
		} else if inst := st.sm.lastLive(from.v, from.obj); inst != nil {
			to = instTuple(gEnd, inst)
		}
		bi.trans.add(fi, ix.edge(*from, to))
	}
	// Add edges for instances created during the block.
	for _, inst := range st.sm.Active {
		if inst.Inactive || lastOf(rec.entry, inst.v, inst.obj) != nil || st.sm.lastLive(inst.v, inst.obj) != inst {
			continue
		}
		from := unknownTuple(rec.entryG, inst.v, inst.obj)
		from.ObjExpr = inst.ObjExpr
		bi.adds.add(fi, ix.edge(from, instTuple(gEnd, inst)))
	}
	for _, stop := range rec.kills {
		if lastOf(rec.entry, stop.v, stop.obj) != nil {
			continue
		}
		from := unknownTuple(rec.entryG, stop.v, stop.obj)
		from.ObjExpr = stop.ObjExpr
		bi.adds.add(fi, ix.edge(from, stop))
	}

	if st.killPath || len(b.Succs) == 0 {
		en.endPath(st)
		return
	}
	en.descend(st, b)
}

// endPath finishes a path: relax suffix summaries backwards along the
// backtrace (Figure 6).
func (en *Engine) endPath(st *pathState) {
	en.Stats.Paths++
	if st.btTop == st.btBase {
		return
	}
	last := en.backtrace[st.btTop-1]
	relax(en.backtrace[st.btBase:st.btTop-1], last.info, last.block.Exit && !st.killPath,
		st.fn.NonParamLocals)
}

// descend explores the block's successors, splitting the extension
// state per path (§2.2 step 4), evaluating branch conditions for
// false-path pruning (§8), and applying pending path-specific
// transitions (§3.2).
func (en *Engine) descend(st *pathState, b *cfg.Block) {
	switch {
	case b.Cond != nil:
		verdict := fpp.Unknown
		if en.Opts.FPP {
			verdict = st.env.EvalCond(b.Cond)
		}
		for _, e := range b.Succs {
			var taken bool
			switch e.Kind {
			case cfg.EdgeTrue:
				taken = true
			case cfg.EdgeFalse:
				taken = false
			default:
				taken = true
			}
			if (verdict == fpp.MustTrue && !taken) || (verdict == fpp.MustFalse && taken) {
				en.Stats.PrunedPaths++
				continue
			}
			ns := en.split(st)
			if en.Opts.FPP {
				ns.env.AssumeCond(b.Cond, taken)
				if ns.env.Contradicted() {
					en.Stats.PrunedPaths++
					en.release(ns)
					continue
				}
			}
			ns.sm.cloneActive(&st.sm)
			en.noteConditional(ns)
			en.applyPending(ns, taken)
			en.traverseBlock(ns, e.To)
			en.release(ns)
		}
	case b.Switch != nil:
		var caseVals []int64
		for _, e := range b.Succs {
			if e.Kind == cfg.EdgeCase && e.CaseConst {
				caseVals = append(caseVals, e.CaseVal)
			}
		}
		for _, e := range b.Succs {
			ns := en.split(st)
			if en.Opts.FPP {
				switch e.Kind {
				case cfg.EdgeCase:
					if e.CaseConst {
						ns.env.AssumeCase(b.Switch, e.CaseVal)
					}
				case cfg.EdgeDefault:
					for _, v := range caseVals {
						ns.env.AssumeNotCase(b.Switch, v)
					}
				}
				if ns.env.Contradicted() {
					en.Stats.PrunedPaths++
					en.release(ns)
					continue
				}
			}
			ns.sm.cloneActive(&st.sm)
			en.noteConditional(ns)
			en.applyPending(ns, true)
			en.traverseBlock(ns, e.To)
			en.release(ns)
		}
	default:
		for _, e := range b.Succs {
			// At a split the last successor is cloned too: summary edges
			// hold their end tuple's instance (edge.prov) and restore reads
			// its Conds and trace later, so an instance that lived on past
			// its split would change ranking input.
			ns := st
			if len(b.Succs) > 1 {
				ns = en.split(st)
				ns.sm.cloneActive(&st.sm)
			}
			en.applyPending(ns, true)
			en.traverseBlock(ns, e.To)
			if ns != st {
				en.release(ns)
			}
		}
	}
}

// noteConditional bumps the conditionals-crossed counter on every
// live instance (ranking criterion 2, §9).
func (en *Engine) noteConditional(st *pathState) {
	for _, in := range st.sm.Active {
		in.Conds++
	}
}

// applyPending resolves path-specific transitions for the chosen
// branch direction (§3.2).
func (en *Engine) applyPending(st *pathState, taken bool) {
	for _, p := range st.pending {
		eff := taken
		if p.neg {
			eff = !eff
		}
		ref, dest := p.r.FalseDest, p.r.falseDest
		if eff {
			ref, dest = p.r.TrueDest, p.r.trueDest
		}
		if p.v == 0 {
			// Creation: attach the destination state to the bound
			// object unless the destination is stop.
			if dest.val == symStop || dest.v == 0 {
				continue
			}
			bnd, ok := p.bindings.Get(ref.Var)
			if !ok || bnd.Expr == nil {
				continue
			}
			en.createInstance(st, nil, dest, bnd.Expr, cc.ExprKey(bnd.Expr), nil)
			continue
		}
		// Instance transition.
		inst := st.sm.Find(p.v, p.obj)
		if inst == nil {
			continue
		}
		if dest.val == symStop {
			en.killInstance(st, nil, inst, true)
		} else {
			oldVal := inst.val
			for _, m := range st.sm.GroupMembers(inst) {
				if m.val == oldVal {
					m.val = dest.val
				}
			}
		}
	}
	// Resolving a transition adds none, so the frame's array is emptied
	// in place.
	st.pending = st.pending[:0]
}

// ---------------------------------------------------------------------------
// Extension application at a program point
// ---------------------------------------------------------------------------

// matchCtx fills the engine's one pattern-match context for a point and
// returns it. The function's locals and the current block's branch
// condition and returned expression ride along for the callouts that
// read them (the null checker's bare "if (v)", the leak checker's
// "return v"). Every field is written at every point: a call followed
// between two points of a block runs the callee's points through the
// same context, and the caller must not resume on the callee's types,
// locals or name.
func (en *Engine) matchCtx(st *pathState, b *cfg.Block, pt cc.Expr, endOfPath, returnPoint bool) *pattern.Ctx {
	ctx := &en.ctx
	ctx.Point, ctx.EndOfPath, ctx.ReturnPoint = pt, endOfPath, returnPoint
	ctx.Types, ctx.FuncName, ctx.Locals = st.fn.Types, st.fn.Name, st.fn.Graph.Locals
	ctx.Callouts = en.callouts
	ctx.BranchCond, ctx.ReturnExpr = nil, nil
	if b != nil {
		ctx.BranchCond, ctx.ReturnExpr = b.Cond, b.ReturnX
	}
	return ctx
}

// noBindings is the empty prior of global-state dispatch.
var noBindings pattern.Bindings

// applyExtension runs the checker at one program point; it reports
// whether any transition matched (used to decide whether to follow a
// call: "The analysis does not follow calls to kfree because the
// extension matches these calls", Figure 5 caption). With returnPoint
// set it is the synthetic-return-point flavor: statement patterns
// like "{ return v }" match there (§4).
func (en *Engine) applyExtension(st *pathState, b *cfg.Block, rec *blockRec, pt cc.Expr, returnPoint bool) bool {
	if n := int64(len(st.sm.Active)); n > 0 {
		en.Stats.InstanceOps += n
		en.rootInstOps += n
	}
	matched := false

	// Global-state transitions (including creation transitions). The
	// pre-filter skips the whole loop when no transition sourced at
	// the current global state can fire anywhere in this block.
	if gs := en.transIdx.at(0, st.sm.g); en.mayFire(st.fn, b, gs) {
		ctx := en.matchCtx(st, b, pt, false, returnPoint)
		for i := range gs.rules {
			r := &gs.rules[i]
			bnd, ok := r.Pat.Match(ctx, noBindings)
			if !ok {
				continue
			}
			if r.PathSpecific {
				creation, cv := r.TrueDest, r.trueDest.v
				if creation.Var == "" {
					creation, cv = r.FalseDest, r.falseDest.v
				}
				if creation.Var != "" {
					if obj, ok := bnd.Get(creation.Var); !ok || obj.Expr == nil || en.tracked(st, cv, cc.ExprKey(obj.Expr)) {
						continue
					}
				}
				matched = true
				st.pending = append(st.pending, pendingBranch{
					r: r, bindings: slices.Clone(bnd), neg: polarityOf(b, pt),
				})
				en.runTransitionActions(st, r.Transition, bnd, pt, nil)
				break
			}
			if r.dest.v != 0 {
				// Creation transition: applies only when the object has
				// no live instance ("the edge only applies when we know
				// nothing about t", §5.2).
				objBnd, ok := bnd.Get(r.Dest.Var)
				if !ok || objBnd.Expr == nil {
					continue
				}
				obj := cc.ExprKey(objBnd.Expr)
				if en.tracked(st, r.dest.v, obj) {
					continue
				}
				matched = true
				var created *Instance
				if r.dest.val != symStop {
					created = en.createInstance(st, rec, r.dest, objBnd.Expr, obj, pt)
				}
				// Actions on a creation transition see the new instance
				// (so note()/incr() initialize its trace and data).
				en.runTransitionActions(st, r.Transition, bnd, pt, created)
				break
			}
			// Pure global-state transition.
			matched = true
			st.sm.g = r.dest.val
			en.runTransitionActions(st, r.Transition, bnd, pt, nil)
			break
		}
	}

	// Variable-specific transitions. Pre-scan with the block filter:
	// when no live instance's state ref can fire anywhere in this
	// block, skip the snapshot and dispatch entirely. Sound because a
	// block where nothing fires also changes no instance state.
	anyInst := false
	for _, in := range st.sm.Active {
		if in.Inactive || in.CreatedAt == pt {
			continue
		}
		if en.mayFire(st.fn, b, en.transIdx.at(in.v, in.val)) {
			anyInst = true
			break
		}
	}
	if !anyInst {
		return matched
	}
	ctx := en.matchCtx(st, b, pt, false, returnPoint)
	en.snapshot = append(en.snapshot[:0], st.sm.Active...)
	for _, inst := range en.snapshot {
		if inst.Inactive || inst.CreatedAt == pt {
			continue
		}
		if !en.stillActive(st, inst) {
			continue
		}
		src := en.transIdx.at(inst.v, inst.val)
		if !en.mayFire(st.fn, b, src) {
			continue
		}
		for i := range src.rules {
			r := &src.rules[i]
			bnd, ok := r.Pat.Match(ctx, inst.matchPrior(r.Source.Var))
			if !ok {
				continue
			}
			matched = true
			if r.PathSpecific {
				st.pending = append(st.pending, pendingBranch{
					r: r, v: inst.v, obj: inst.obj, neg: polarityOf(b, pt),
				})
				en.runTransitionActions(st, r.Transition, bnd, pt, inst)
				break
			}
			en.runTransitionActions(st, r.Transition, bnd, pt, inst)
			if r.dest.val == symStop {
				// Synonym mirroring on stop follows the paper's own
				// trace: an error transition stops only the triggering
				// instance (Figure 2 step 9 stops q but leaves its
				// synonym p active at step 12), while a verification
				// transition stops the whole group (§8: "a successful
				// check that p is not null also implies that q is not
				// null").
				en.killInstance(st, rec, inst, !transitionReports(r.Transition))
			} else {
				oldVal := inst.val
				for _, m := range st.sm.GroupMembers(inst) {
					if m.val == oldVal {
						m.val = r.dest.val
						m.trace = m.trace.push(traceMoves, pt, en.intern.vals.name(oldVal), r.Dest.Val)
					}
				}
			}
			break
		}
		if st.killPath {
			return matched
		}
	}
	return matched
}

// tracked reports whether the object, by its canonical key, has an
// active instance of state variable v.
func (en *Engine) tracked(st *pathState, v int32, obj string) bool {
	id, ok := en.intern.objs.find(obj)
	return ok && st.sm.Find(v, id) != nil
}

func (en *Engine) stillActive(st *pathState, inst *Instance) bool {
	for _, in := range st.sm.Active {
		if in == inst {
			return true
		}
	}
	return false
}

// transitionReports reports whether the transition's actions emit an
// error report.
func transitionReports(tr *metal.Transition) bool {
	for _, a := range tr.Actions {
		if a.Fn == "err" || a.Fn == "check_data" {
			return true
		}
	}
	return false
}

// runTransitionActions executes a transition's actions with a fresh
// action context.
func (en *Engine) runTransitionActions(st *pathState, tr *metal.Transition, bnd pattern.Bindings, pt cc.Expr, inst *Instance) {
	ctx := &ActionCtx{
		Engine:   en,
		State:    st,
		Point:    pt,
		Pos:      posOf(pt),
		Bindings: bnd,
		Inst:     inst,
	}
	en.runActions(ctx, tr.Actions)
}

func posOf(pt cc.Expr) cc.Pos {
	if pt == nil {
		return cc.Pos{}
	}
	return pt.Pos()
}

// polarityOf computes whether the matched point sits under a negation
// within the block's branch condition, so path-specific destinations
// follow source-level truth ("if (!trylock(l))" swaps the branches).
func polarityOf(b *cfg.Block, pt cc.Expr) bool {
	if b == nil || b.Cond == nil {
		return false
	}
	neg, found := findPolarity(b.Cond, pt, false)
	if !found {
		return false
	}
	return neg
}

func findPolarity(e cc.Expr, target cc.Expr, neg bool) (bool, bool) {
	if e == target {
		return neg, true
	}
	switch e := e.(type) {
	case *cc.UnaryExpr:
		if e.Op == cc.TokNot {
			return findPolarity(e.X, target, !neg)
		}
		return findPolarity(e.X, target, neg)
	case *cc.BinaryExpr:
		// x == 0 flips polarity; x != 0 preserves it.
		flip := false
		if lit, ok := e.Y.(*cc.IntLit); ok && lit.Value == 0 {
			if e.Op == cc.TokEq {
				flip = true
			}
		}
		if n, found := findPolarity(e.X, target, neg != flip); found {
			return n, true
		}
		return findPolarity(e.Y, target, neg)
	case *cc.AssignExpr:
		return findPolarity(e.RHS, target, neg)
	case *cc.CallExpr:
		for _, a := range e.Args {
			if n, found := findPolarity(a, target, neg); found {
				return n, true
			}
		}
		return findPolarity(e.Fun, target, neg)
	case *cc.CondExpr:
		if n, found := findPolarity(e.Cond, target, neg); found {
			return n, true
		}
		if n, found := findPolarity(e.Then, target, neg); found {
			return n, true
		}
		return findPolarity(e.Else, target, neg)
	}
	return false, false
}

// ---------------------------------------------------------------------------
// Instance lifecycle
// ---------------------------------------------------------------------------

// createInstance attaches a new state to a program object, whose
// canonical key is obj, spawning a new state machine (§2.1).
func (en *Engine) createInstance(st *pathState, rec *blockRec, dest stateSym, objExpr cc.Expr, obj string, pt cc.Expr) *Instance {
	inst := &Instance{
		v:         dest.v,
		obj:       en.intern.objs.id(obj),
		ObjExpr:   objExpr,
		val:       dest.val,
		CreatedAt: pt,
		StartPos:  posOf(pt),
		StartFunc: st.fn.Name,
		CallDepth: st.callDepth,
	}
	if pt != nil {
		inst.trace = inst.trace.push(traceEnters, pt, obj, en.intern.vals.name(dest.val))
	}
	en.classifyScope(st.fn, inst)
	st.sm.Active = append(st.sm.Active, inst)
	return inst
}

// classifyScope records whether the tracked object is a global, a
// file-scope static, or local-mentioning (§6.1 scoping rules).
func (en *Engine) classifyScope(fn *prog.Function, inst *Instance) {
	if mentionsLocals(inst.ObjExpr, fn) {
		return
	}
	root := rootIdent(inst.ObjExpr)
	if root == "" {
		return
	}
	if file, ok := en.Prog.Statics[root]; ok {
		inst.Static = true
		inst.HomeFile = file
		return
	}
	if en.Prog.GlobalNames[root] {
		inst.GlobalObj = true
	}
}

// rootIdent returns the base identifier of an lvalue-ish expression.
func rootIdent(e cc.Expr) string {
	switch e := e.(type) {
	case *cc.Ident:
		return e.Name
	case *cc.UnaryExpr:
		return rootIdent(e.X)
	case *cc.FieldExpr:
		return rootIdent(e.X)
	case *cc.IndexExpr:
		return rootIdent(e.X)
	case *cc.CastExpr:
		return rootIdent(e.X)
	}
	return ""
}

// killInstance transitions an instance to stop, deleting its state
// machine (§2.1). With mirror set, synonym group members follow
// ("state changes in one are mirrored in the other", §8).
func (en *Engine) killInstance(st *pathState, rec *blockRec, inst *Instance, mirror bool) {
	victims := []*Instance{inst}
	if mirror && inst.Group != 0 {
		victims = st.sm.GroupMembers(inst)
	}
	for _, v := range victims {
		if rec != nil {
			rec.noteKill(st.sm.g, v)
		}
		st.sm.Remove(v)
	}
}

// ---------------------------------------------------------------------------
// Assignments: value tracking, synonyms, kills (§8)
// ---------------------------------------------------------------------------

func (en *Engine) handleAssign(st *pathState, rec *blockRec, asg *cc.AssignExpr, pt cc.Expr) {
	if en.Opts.FPP && asg.Op == cc.TokAssign {
		st.env.Assign(asg.LHS, asg.RHS)
	}
	if asg.Op != cc.TokAssign {
		// Compound assignment redefines the LHS without copying state.
		en.handleMutation(st, rec, asg.LHS)
		return
	}
	if cc.EqualExpr(asg.LHS, asg.RHS) {
		return
	}
	// Synonyms: "If a variable tracked by an extension is assigned to
	// another variable, both variables become synonyms." Chained
	// assignments (p = q = kmalloc(...)) look through to the inner
	// LHS, which carries the value — the paper's §8 example. A key is
	// rendered only when there is an instance it could name.
	var newInst *Instance
	if en.Opts.Synonyms && len(st.sm.Active) > 0 {
		srcExpr := asg.RHS
		for {
			inner, ok := srcExpr.(*cc.AssignExpr)
			if !ok || inner.Op != cc.TokAssign {
				break
			}
			srcExpr = inner.LHS
		}
		srcKey := cc.ExprKey(srcExpr)
		if obj, ok := en.intern.objs.find(srcKey); ok {
			if src := st.sm.FindObj(obj); src != nil && !src.Inactive {
				if src.Group == 0 {
					en.nextGroup++
					src.Group = en.nextGroup
				}
				lhsKey := cc.ExprKey(asg.LHS)
				newInst = src.clone()
				newInst.obj = en.intern.objs.id(lhsKey)
				newInst.ObjExpr = asg.LHS
				newInst.SynDepth = src.SynDepth + 1
				newInst.CreatedAt = pt
				newInst.trace = newInst.trace.push(traceSynonym, pt, lhsKey, srcKey)
				en.classifyScope(st.fn, newInst)
			}
		}
	}
	// Kill on redefinition: delete state attached to the assigned
	// variable and to any expression that uses it.
	if en.Opts.Kills {
		en.killMentions(st, rec, asg.LHS, newInst, pt)
	}
	if newInst != nil {
		if old := st.sm.Find(newInst.v, newInst.obj); old != nil {
			en.killInstance(st, rec, old, false)
		}
		st.sm.Active = append(st.sm.Active, newInst)
	}
}

// handleMutation kills state invalidated by ++/--/compound updates.
func (en *Engine) handleMutation(st *pathState, rec *blockRec, lval cc.Expr) {
	if id, ok := lval.(*cc.Ident); ok && en.Opts.FPP {
		st.env.Havoc(id.Name)
	}
	if en.Opts.Kills {
		en.killMentions(st, rec, lval, nil, nil)
	}
}

// killMentions removes instances whose tracked object's VALUE is or
// depends on the redefined lvalue: "an expression (e.g., a[i]) with
// attached state is transitioned to the stop state when a component of
// that expression (e.g., i) is redefined" (§8). An object of the form
// &x does not depend on x's value — writing x does not move its
// address — so lock state attached to &mutex survives mutex = 0.
func (en *Engine) killMentions(st *pathState, rec *blockRec, lval cc.Expr, spare *Instance, pt cc.Expr) {
	id, isIdent := lval.(*cc.Ident)
	en.snapshot = append(en.snapshot[:0], st.sm.Active...)
	for _, in := range en.snapshot {
		if in == spare {
			continue
		}
		// An instance created at this very point (e.g. by the pattern
		// "{ v = kmalloc(args) }") is not killed by its own defining
		// assignment.
		if pt != nil && in.CreatedAt == pt {
			continue
		}
		dead := false
		if isIdent {
			dead = valueDependsOn(in.ObjExpr, id.Name)
		} else {
			dead = cc.SubExprOf(lval, in.ObjExpr)
		}
		if dead && en.stillActive(st, in) {
			en.killInstance(st, rec, in, false)
		}
	}
}

// valueDependsOn reports whether e's value depends on the named
// variable's value. Occurrences directly under address-of (&name) are
// excluded: the address is storage identity, not content.
func valueDependsOn(e cc.Expr, name string) bool {
	found := false
	cc.WalkExpr(e, func(x cc.Expr) bool {
		switch x := x.(type) {
		case *cc.Ident:
			if x.Name == name {
				found = true
			}
		case *cc.UnaryExpr:
			if id, ok := x.X.(*cc.Ident); ok && x.Op == cc.TokAmp && !x.Postfix && id.Name == name {
				return false
			}
		}
		return !found
	})
	return found
}

// ---------------------------------------------------------------------------
// End of path (§3.2 $end_of_path$)
// ---------------------------------------------------------------------------

// endOfPath fires $end_of_path$ transitions at the function's exit:
// for instances attached to the function's own (non-parameter) locals
// always, and for everything — including global state — when the root
// path terminates ("when either an instance ... permanently leaves
// scope or when the program terminates").
func (en *Engine) endOfPath(st *pathState, rec *blockRec) {
	isRoot := st.callDepth == 0
	nonParam := st.fn.NonParamLocals
	ctx := en.matchCtx(st, nil, nil, true, false)

	en.snapshot = append(en.snapshot[:0], st.sm.Active...)
	for _, inst := range en.snapshot {
		if inst.Inactive || !en.stillActive(st, inst) {
			continue
		}
		leavesScope := isRoot || mentionsAny(inst.ObjExpr, nonParam)
		if !leavesScope {
			continue
		}
		rules := en.transIdx.at(inst.v, inst.val).rules
		for i := range rules {
			r := &rules[i]
			bnd, ok := r.Pat.Match(ctx, inst.matchPrior(r.Source.Var))
			if !ok {
				continue
			}
			en.runTransitionActions(st, r.Transition, bnd, nil, inst)
			if r.PathSpecific || r.dest.val == symStop {
				en.killInstance(st, rec, inst, false)
			} else {
				inst.val = r.dest.val
			}
			break
		}
	}
	if isRoot {
		rules := en.transIdx.at(0, st.sm.g).rules
		for i := range rules {
			r := &rules[i]
			bnd, ok := r.Pat.Match(ctx, noBindings)
			if !ok {
				continue
			}
			en.runTransitionActions(st, r.Transition, bnd, nil, nil)
			if !r.PathSpecific && r.dest.v == 0 {
				st.sm.g = r.dest.val
			}
			break
		}
	}
}

// emitReport materializes an err() action into a ranked report. The set
// is asked before anything is built: a duplicate allocates nothing.
func (en *Engine) emitReport(ctx *ActionCtx, msg string) {
	st, in := ctx.State, ctx.Inst
	k := report.Key{Pos: ctx.Pos, Func: st.fn.Name, Checker: en.Checker.Name, Msg: msg, Rule: ctx.Rule}
	if k.Rule == "" {
		k.Rule = en.Checker.Name
	}
	start := ctx.Pos
	if in != nil {
		start = in.StartPos
		// End-of-path transitions have no program point; anchor the
		// report where tracking began (the unreleased lock site).
		if !k.Pos.IsValid() {
			k.Pos = in.StartPos
		}
	} else if !k.Pos.IsValid() {
		// Global end-of-path reports carry no program point; anchor
		// them at the function so reports from different functions
		// stay distinct.
		k.Pos = st.fn.Decl.P
		start = k.Pos
	}
	if en.Reports.Has(k) {
		return
	}
	r := &report.Report{
		Checker: k.Checker,
		Msg:     k.Msg,
		Pos:     k.Pos,
		Start:   start,
		Func:    k.Func,
		Class:   ctx.Class,
		Rule:    k.Rule,
	}
	if r.Class == report.ClassNone {
		r.Class = st.pathClass
	}
	if in != nil {
		r.Conditionals = in.Conds
		r.SynonymDepth = in.SynDepth
		r.Interprocedural = in.StartFunc != st.fn.Name
		if r.Interprocedural {
			d := st.callDepth - in.CallDepth
			if d < 0 {
				d = -d
			}
			if d == 0 {
				d = 1
			}
			r.CallChain = d
		}
		r.Vars = identsOf(in.ObjExpr)
		r.Trace = append(in.trace.strings(),
			fmt.Sprintf("%s: %s", ctx.Pos, msg))
	}
	en.Reports.Add(r)
}

// identsOf lists the identifier names mentioned by an expression.
func identsOf(e cc.Expr) []string {
	seen := map[string]bool{}
	var out []string
	cc.WalkExpr(e, func(sub cc.Expr) bool {
		if id, ok := sub.(*cc.Ident); ok && !seen[id.Name] {
			seen[id.Name] = true
			out = append(out, id.Name)
		}
		return true
	})
	sort.Strings(out)
	return out
}
