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

// UnitTree is a built program with the content fingerprints every unit
// key is derived from. RunContext builds one without them (keyed false)
// for a run that has no store: nothing is keyed, and tasks hands every
// checker the whole program.
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

// NewUnitTree assembles parsed files into a program and fingerprints
// it: the position-independent declaration environment and each
// function's content are what every unit key derives from. One
// cc.Hasher hashes them all; a digest is rendered as hex only where it
// enters a key.
func NewUnitTree(files []*cc.File) *UnitTree {
	p := prog.Build(files...)
	h := cc.NewHasher()
	env := h.Env(files)
	t := &UnitTree{Prog: p, keyed: true, checkers: map[string]*unitChecker{},
		envFP: hex.EncodeToString(env[:]), funcHash: make([][sha256.Size]byte, len(p.All))}
	for _, fn := range p.All {
		t.funcHash[fn.Index] = h.Decl(fn.Decl)
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
// the store or run live, it ends up holding the same thing: the unit's
// per-root report segments and its cut.
type unitTask struct {
	ci       int // the checker's index in its Analyzer
	units    []*prog.Unit
	funcs    []*prog.Function
	roots    []*prog.Function
	key      string // "" = uncacheable, always live
	replayed bool   // runs and cut came from the store
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
// annotation store at that barrier. Without a store to key for, and for
// two kinds of checker, one task per call-graph unit is too fine:
//   - custom Go callouts: native code is invisible to the source
//     fingerprint, so the checker runs live, whole-program, unkeyed;
//   - self-coupled checkers (both mark_fn and mc_fn_marked): their own
//     marks flow across units within one run, so they key as a single
//     whole-program unit.
func (t *UnitTree) tasks(ci int, c *metal.Checker, checkerFP string, opts Options, marks *core.Shared) []*unitTask {
	p := t.Prog
	if !t.keyed || len(c.Callouts) > 0 {
		return []*unitTask{{ci: ci, units: p.Units(), funcs: p.All, roots: p.Roots}}
	}
	optsFP, marksFP := optionsFingerprint(opts), marksFingerprint(marks)
	key := func(unitFP string) string {
		return cache.UnitKey(checkerFP, optsFP, t.envFP, marksFP, unitFP)
	}
	if c.UsesAction("mark_fn") && c.UsesCallout("mc_fn_marked") {
		return []*unitTask{{ci: ci, units: p.Units(), funcs: p.All, roots: p.Roots, key: key(t.wholeFP())}}
	}
	// One slab of tasks, and one of root runs a replay fills in place:
	// each task's runs start empty with room for its unit's roots.
	units := p.Units()
	slab := make([]unitTask, len(units))
	nroots := 0
	for _, u := range units {
		nroots += len(u.Roots)
	}
	runs := make([]core.RootRun, nroots)
	out := make([]*unitTask, len(units))
	for i, u := range units {
		slab[i] = unitTask{ci: ci, units: units[i : i+1], funcs: u.Funcs, roots: u.Roots, key: key(t.unitFPs[i]),
			runs: runs[:0:len(u.Roots)]}
		runs = runs[len(u.Roots):]
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
					t.record, _ = cache.EncodeUnit(cache.NewUnitEntry(t.cut, t.runs))
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
	fp       string
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
		if c, err := metal.Parse(src); err == nil {
			uc = &unitChecker{c: c, fp: cc.HashBytes([]byte(src)),
				compiled: core.CompileDispatch(t.Prog, []*metal.Checker{c})}
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
		for _, task := range t.tasks(ci, uc.c, uc.fp, run.Options, shared[ci]) {
			if task.key != "" && want[UnitJob{Key: task.key, Checker: ci}] {
				tasks = append(tasks, task)
			}
		}
	}
	runLive(ctx, sem, tasks, func(ci int) *core.Engine {
		en := core.NewEngineShared(t.Prog, checkers[ci].c, run.Options, shared[ci])
		en.SetCompiled(checkers[ci].compiled, 0)
		return en
	}, nil) // no AST goes: the tree outlives the call
	return records(tasks), compiled
}
