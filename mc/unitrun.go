package mc

// Unit execution (DESIGN.md §8, §15): the one enumerator of a phase's
// (checker, unit) tasks with their content-derived keys, and the one
// producer of storable records from live runs. It has two callers —
// RunContext's phase loop and a fleet worker (RunUnits) — so a unit runs
// remotely exactly as it runs locally, and remote execution is this file
// plus a shared store.
//
// That is also the fleet's safety argument. A UnitRun names the keys it
// wants filled, never what a key contains: the worker rebuilds the
// tree, derives every key itself from (tree, options, checker text,
// barrier marks), runs the units whose derived key was asked for, and
// stores each record under the key it derived; a wanted key the inputs
// do not derive is not filled. Unfilled keys — worker loss, a declined
// request, a run the storage rule refuses — stay cache misses and run
// locally, so the fallback path is the normal path.
//
// The storage rule, stated once (runLive, applied per unit): a unit whose
// roots a budget or a cancellation truncated, or that ran on or after its
// checker's panic, is never stored (core.UnitCut.Complete). A record
// always stands for a complete analysis, wherever it ran.

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"slices"
	"strings"
	"sync"

	"repro/internal/cache"
	"repro/internal/cc"
	"repro/internal/core"
	"repro/internal/metal"
	"repro/internal/prog"
)

// MarkEvent re-exports one composition-mark record (core.MarkEvent).
// Marks are an idempotent boolean set, so re-applying the sorted events
// reconstructs the annotation store they were listed from.
type MarkEvent = core.MarkEvent

// UnitJob is one cache-miss (checker, unit) pair: the key wanted and
// the index of its checker in UnitRun.Checkers. Weight is the unit's
// member-function count, the sharder's packing weight; it does not
// travel.
type UnitJob struct {
	Key     string `json:"key"`
	Checker int    `json:"checker"`
	Weight  int    `json:"-"`
}

// UnitRun is one phase's cache-miss units, and the body a fleet worker
// is posted. Files is the full source set (unit keys cover the
// declaration environment, so a partial tree would re-key everything);
// Options are the coordinator's engine options; Marks is the annotation
// store at the phase barrier; Checkers holds each checker's metal
// source once (checkers with native Go callouts are never offered —
// their code cannot ride a wire).
type UnitRun struct {
	Files    map[string]string `json:"files"`
	Options  Options           `json:"options"`
	Marks    []MarkEvent       `json:"marks,omitempty"`
	Checkers []string          `json:"checkers"`
	Jobs     []UnitJob         `json:"jobs"`
}

// UnitRunner offers a UnitRun to remote executors, which fill unit
// keys in the shared store as a side effect. An error (or any unfilled
// key) means those units run locally; it never fails the analysis.
type UnitRunner = func(ctx context.Context, run *UnitRun) error

// UnitTree is an assembled program with the content fingerprints every
// unit key is derived from; build builds the units its tasks run.
// RunContext makes one without the fingerprints (keyed false) for a run
// that has no store: nothing is keyed, and tasks hands every checker
// the units it is not silent over as one task.
type UnitTree struct {
	Prog     *prog.Program
	keyed    bool
	envFP    string
	funcHash [][sha256.Size]byte // by Function.Index
	unitFPs  []string            // parallel to Prog.Units()
	wholeFP  func() string       // of Prog.All, derived on first use

	mu       sync.Mutex
	checkers map[string]*unitChecker // by source text; nil = does not parse
}

// NewUnitTree assembles pass 1's files into a program (prog.Assemble:
// skimmed bodies stay unparsed until a unit runs) and fingerprints it:
// the position-independent declaration environment and each function's
// declaration and body tokens (cc.Hasher.Func) are what every unit key
// derives from. One cc.Hasher hashes them all; a digest is rendered as
// hex only where it enters a key.
func NewUnitTree(files []*cc.File) *UnitTree { return newUnitTree(files, true) }

// newUnitTree is NewUnitTree, fingerprinted only when keyed.
func newUnitTree(files []*cc.File, keyed bool) *UnitTree {
	p := prog.Assemble(files...)
	t := &UnitTree{Prog: p, keyed: keyed}
	if !keyed {
		return t
	}
	h := cc.NewHasher()
	env := h.Env(files)
	t.envFP, t.funcHash = hex.EncodeToString(env[:]), make([][sha256.Size]byte, len(p.All))
	for _, fn := range p.All {
		t.funcHash[fn.Index] = h.Func(fn.Decl)
	}
	t.unitFPs = make([]string, len(p.Units()))
	for i, u := range p.Units() {
		t.unitFPs[i] = t.unitFP(u.Funcs)
	}
	t.wholeFP = sync.OnceValue(func() string { return t.unitFP(p.All) })
	return t
}

// unitFP fingerprints a member list: its FuncID=hash lines, sorted and
// joined by newlines. The lines are written into one buffer and sorted
// as slices of it.
func (t *UnitTree) unitFP(fns []*prog.Function) string {
	n := 0
	for _, fn := range fns {
		n += len(fn.Decl.File) + len(fn.Name) + 2 + hex.EncodedLen(sha256.Size)
	}
	buf := make([]byte, 0, n)
	lines := make([][]byte, len(fns))
	for i, fn := range fns {
		start := len(buf)
		buf = hex.AppendEncode(append(prog.AppendFuncID(buf, fn), '='), t.funcHash[fn.Index][:])
		lines[i] = buf[start:]
	}
	slices.SortFunc(lines, bytes.Compare)
	var sb strings.Builder
	sb.Grow(n + len(lines))
	for i, l := range lines {
		if i > 0 {
			sb.WriteByte('\n')
		}
		sb.Write(l)
	}
	return sb.String()
}

// unitTask is one (checker, unit) work item in a phase. Replayed from
// the store, settled as silent or run live, it ends up holding the same
// thing: the unit's per-root report segments and its cut.
type unitTask struct {
	ci       int // the checker's index in its Analyzer
	units    []*prog.Unit
	funcs    []*prog.Function // a keyed task's members
	roots    []*prog.Function
	key      string // "" = uncacheable, always live, unless silent
	replayed bool   // runs and cut are known without a run: from the store, or silent
	silent   bool   // settled because SkipRoot holds at each root (tasks); no key
	runs     []core.RootRun
	cut      core.UnitCut
	record   []byte // the live run's storable encoding, until records takes it
}

// replay fills the task from a decoded record, as if it had just run.
// Roots pair up by position: a record lists the unit's roots in the
// order they ran, and probeTasks has checked the count.
func (t *unitTask) replay(e *cache.UnitEntry) {
	t.replayed = true
	t.cut = core.UnitCut{Stats: e.Stats, Rules: e.Rules, Marks: e.Marks, Complete: true}
	if cap(t.runs) < len(e.Roots) {
		t.runs = make([]core.RootRun, len(e.Roots))
	}
	t.runs = t.runs[:len(e.Roots)]
	for i, rr := range e.Roots {
		t.runs[i] = core.RootRun{Root: t.roots[i], Reports: rr.Reports}
	}
}

// tasks enumerates checker c's work at one phase barrier, each task
// with the key its complete analysis is stored under; marks is the
// annotation store at that barrier, and cd the dispatch that numbers c
// as its checker di.
//
// First, in every run, the units c is silent over: those at each of
// whose roots SkipRoot holds (DESIGN.md §11.2), decided from pass 1's
// names. A live run would skip each root and cut nothing else, so one
// task, first, settles them all with that cut, with no key, probe,
// record, fleet job or body build. The rest is one task per call-graph
// unit, except where that is too fine:
//   - without a store to key for, and for a checker with custom Go
//     callouts (native code is invisible to the source fingerprint),
//     one unkeyed task runs every unit left, and never rides a fleet
//     job;
//   - a self-coupled checker (both mark_fn and mc_fn_marked) keys them
//     as a single whole-program unit: its own marks flow across units
//     within one run.
func (t *UnitTree) tasks(ci int, c *metal.Checker, cd *core.CompiledDispatch, di int, opts Options, marks *core.Shared) []*unitTask {
	p := t.Prog
	units := p.Units()
	silent := make([]bool, len(units)) // by Unit.Index
	nsilent, nlive, nroots := 0, 0, 0  // the silent units' roots; the other units, their roots
	for _, u := range units {
		silent[u.Index] = !slices.ContainsFunc(u.Roots, func(r *prog.Function) bool { return !cd.SkipRoot(di, r) })
		if silent[u.Index] {
			nsilent += len(u.Roots)
		} else {
			nlive, nroots = nlive+1, nroots+len(u.Roots)
		}
	}
	quiet, rest := units, units // the silent units, the others
	if nsilent > 0 && nroots > 0 {
		quiet = slices.DeleteFunc(slices.Clone(units), func(u *prog.Unit) bool { return !silent[u.Index] })
		rest = slices.DeleteFunc(slices.Clone(units), func(u *prog.Unit) bool { return silent[u.Index] })
	}
	keyed := t.keyed && len(c.Callouts) == 0
	whole := !keyed || c.WritesMarks() && c.ReadsMarks()
	if whole {
		nlive = min(nlive, 1)
	}
	var key func(unitFP string) string
	if keyed {
		optsFP, marksFP := optionsFingerprint(opts), marksFingerprint(marks)
		key = func(unitFP string) string { return cache.UnitKey(c.ID, optsFP, t.envFP, marksFP, unitFP) }
	}

	// One slab of tasks, and one of root runs a replay fills in place:
	// each keyed unit's task's runs start empty with room for its roots.
	slab := make([]unitTask, 0, 1+nlive)
	if nsilent > 0 {
		slab = append(slab, unitTask{ci: ci, units: quiet, replayed: true, silent: true,
			cut: core.UnitCut{Stats: core.Stats{RootsSkipped: int64(nsilent)}, Complete: true}})
	}
	switch {
	case nlive == 0:
	case whole:
		task := unitTask{ci: ci, units: rest, roots: p.Roots}
		if nsilent > 0 {
			task.roots = make([]*prog.Function, 0, nroots)
			for _, r := range p.Roots {
				if !silent[r.Unit.Index] {
					task.roots = append(task.roots, r)
				}
			}
		}
		if keyed {
			for _, u := range rest {
				task.funcs = append(task.funcs, u.Funcs...)
			}
			task.key = key(t.wholeFP())
		}
		slab = append(slab, task)
	default:
		runs := make([]core.RootRun, nroots)
		for _, u := range rest {
			slab = append(slab, unitTask{ci: ci, units: units[u.Index : u.Index+1], funcs: u.Funcs, roots: u.Roots,
				key: key(t.unitFPs[u.Index]), runs: runs[:0:len(u.Roots)]})
			runs = runs[len(u.Roots):]
		}
	}
	out := make([]*unitTask, len(slab))
	for i := range slab {
		out[i] = &slab[i]
	}
	return out
}

// marksFingerprint keys the annotation store visible at a phase barrier.
func marksFingerprint(s *core.Shared) string { return cache.Key("marks", s.Snapshot()) }

// runLive runs the tasks nothing replayed: one engine per checker that
// has any (newEngine builds it; it retires each unit after the unit's
// last root, telling onRetire when there is one — DESIGN.md §12), that
// checker's tasks on it in order, cut at each unit boundary
// (core.Engine.CutUnit has the argument for why a cut equals a fresh
// engine's run). Engines of one call run concurrently, one sem slot
// each, slots acquired in task order — tasks arrive grouped by checker
// in load order — so a one-slot semaphore (-j 1) degenerates to the
// sequential schedule. A complete keyed unit leaves its record on the
// task (the storage rule above).
func runLive(ctx context.Context, sem chan struct{}, tasks []*unitTask, newEngine func(ci int) *core.Engine, onRetire func(*prog.Unit)) {
	var wg sync.WaitGroup
	for len(tasks) > 0 {
		n := 1
		for n < len(tasks) && tasks[n].ci == tasks[0].ci {
			n++
		}
		var live []*unitTask
		for _, t := range tasks[:n] {
			if !t.replayed {
				live = append(live, t)
			}
		}
		tasks = tasks[n:]
		if len(live) == 0 {
			continue
		}
		en := newEngine(live[0].ci)
		en.SetRetire(onRetire)
		sem <- struct{}{}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			for _, t := range live {
				t.runs = en.RunRootsContext(ctx, t.roots)
				t.cut = en.CutUnit()
				if t.key != "" && t.cut.Complete {
					t.record, _ = cache.EncodeUnit(cache.NewUnitEntry(t.cut, t.roots, t.runs))
				}
			}
		}()
	}
	wg.Wait()
}

// records hands over the records runLive left on the tasks, by key.
func records(tasks []*unitTask) map[string][]byte {
	out := map[string][]byte{}
	for _, t := range tasks {
		if t.record != nil {
			out[t.key], t.record = t.record, nil
		}
	}
	return out
}

// unitChecker is a checker parsed and compiled against one UnitTree.
// Engines only read it, so concurrent runs share one.
type unitChecker struct {
	c        *metal.Checker
	compiled *core.CompiledDispatch
}

// checker returns the tree's compiled form of a metal source, parsing
// it and compiling its dispatch over the tree on first sight (fresh
// reports that); nil when the source does not parse.
func (t *UnitTree) checker(src string) (uc *unitChecker, fresh bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	uc, seen := t.checkers[src]
	if !seen {
		if t.checkers == nil {
			t.checkers = map[string]*unitChecker{}
		}
		if c, err := metal.Parse(src); err == nil {
			uc = &unitChecker{c: c, compiled: core.CompileDispatch(t.Prog, []*metal.Checker{c})}
		}
		t.checkers[src] = uc
	}
	return uc, !seen
}

// RunUnits is the remote half of a phase: it compiles the checkers the
// run's jobs name (once per tree each; compiled counts the new ones),
// derives every unit key at the barrier run.Marks describes, runs the
// units some job asks for — one engine and one sem slot per checker, so
// one semaphore bounds all of a caller's concurrent calls — and returns
// each complete unit's record by key. A job whose checker does not parse or whose key the
// inputs do not derive is ignored.
func (t *UnitTree) RunUnits(ctx context.Context, sem chan struct{}, run *UnitRun) (recs map[string][]byte, compiled int) {
	want := make(map[UnitJob]bool, len(run.Jobs))
	for _, j := range run.Jobs {
		want[UnitJob{Key: j.Key, Checker: j.Checker}] = true
	}
	// One annotation store per checker: units of one checker never read
	// each other's marks (a checker that would is a single task), and
	// a run pairing a writer with its reader cannot leak marks between
	// them.
	checkers := make([]*unitChecker, len(run.Checkers))
	shared := make([]*core.Shared, len(run.Checkers))
	var tasks []*unitTask
	for _, j := range run.Jobs {
		ci := j.Checker
		if ci < 0 || ci >= len(checkers) || shared[ci] != nil {
			continue
		}
		shared[ci] = core.NewShared()
		for _, ev := range run.Marks {
			shared[ci].Mark(ev.Name, ev.Key)
		}
		uc, fresh := t.checker(run.Checkers[ci])
		if fresh {
			compiled++
		}
		if checkers[ci] = uc; uc == nil {
			continue
		}
		for _, task := range t.tasks(ci, uc.c, uc.compiled, 0, run.Options, shared[ci]) {
			if task.key != "" && want[UnitJob{Key: task.key, Checker: ci}] {
				tasks = append(tasks, task)
			}
		}
	}
	if _, err := t.build(tasks, 1, func(ci int) *core.CompiledDispatch { return checkers[ci].compiled }); err != nil {
		return nil, compiled // a body does not parse: the coordinator's own run reports it
	}
	runLive(ctx, sem, tasks, func(ci int) *core.Engine {
		en := core.NewEngineShared(t.Prog, checkers[ci].c, run.Options, shared[ci])
		en.SetCompiled(checkers[ci].compiled, 0)
		return en
	}, nil) // no AST goes: the tree outlives the call
	return records(tasks), compiled
}

// build parses and builds the bodies of the units of the tasks nothing
// replayed that the tree has not built yet, on a pool of at most
// workers goroutines, and adds those units to the dispatch of each
// task's checker (DESIGN.md §8): a unit every checker replays is never
// parsed. It returns how many bodies it parsed, and the first parse
// error in source order. Under the tree's lock: the engines of a
// concurrent RunUnits call read only their own units, which it does
// not write; RunContext calls it between phases.
func (t *UnitTree) build(tasks []*unitTask, workers int, dispatch func(ci int) *core.CompiledDispatch) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	// Every dispatch is handed the one list of units, each once: a unit
	// only another checker runs costs it tables it never reads, where a
	// list per checker would cost a run without a store, whose every
	// task covers every unit, an entry per checker and unit. A unit its
	// task's dispatch has is built already, so a phase after the first
	// of a run without a store lists nothing and allocates nothing.
	var units []*prog.Unit
	var seen []bool
	var one [1]*core.CompiledDispatch // room for a run's one dispatch
	cds := one[:0]
	for _, task := range tasks {
		if task.replayed {
			continue
		}
		cd := dispatch(task.ci)
		for _, u := range task.units {
			if cd.HasUnit(u) {
				continue
			}
			if !slices.Contains(cds, cd) {
				cds = append(cds, cd)
			}
			if seen == nil {
				n := len(t.Prog.Units())
				units, seen = make([]*prog.Unit, 0, n), make([]bool, n)
			}
			if !seen[u.Index] {
				seen[u.Index] = true
				units = append(units, u)
			}
		}
	}
	if len(units) == 0 {
		return 0, nil
	}
	parsed, err := t.Prog.BuildUnits(units, workers)
	if err != nil {
		return parsed, err
	}
	for _, cd := range cds {
		cd.AddUnits(units)
	}
	return parsed, nil
}
