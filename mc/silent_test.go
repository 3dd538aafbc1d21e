package mc

// The silent-unit rule (DESIGN.md §8 "Unit of work"): every run settles
// a (checker, unit) pair without the store or a body build when SkipRoot
// holds at each root of the unit, on the strength of the depth-1
// argument SkipRoot makes from pass 1's names (§11.2). This holds the
// settled cut to the one a live run cuts, and the run without a store
// to the run with one.

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/prog"
	"repro/internal/workload"
)

// silentExtras are checkers beside the bundled ones whose initial
// transitions are not all call-keyed: a shape ({ *v }) that fires in
// almost any unit, the same beside a call, and a callout a call shape
// carries. An alternative that names no callee makes the checker live
// at every root, so a rule that read their names wrongly would settle a
// unit they fire in.
var silentExtras = []string{`
sm deref_watch;
decl any_pointer v;
start:
    { *v } ==> start, { err("dereference of %s", mc_identifier(v)); }
;`, `
sm free_or_index;
decl any_pointer v;
decl any_expr idx;
start:
    { kfree(v) } ==> start, { err("free of %s", mc_identifier(v)); }
  | { v[idx] }   ==> start, { err("index of %s", mc_identifier(v)); }
;`, pathkillReaderSrc}

// pathkillReaderSrc fires at calls to a function marked "pathkill": a
// callout no callee name stands for.
const pathkillReaderSrc = `
sm pathkill_reader;
decl any_fn_call fn;
decl any_arguments args;
start:
    { fn(args) } && ${ mc_fn_marked(fn, "pathkill") } ==> start, { err("call to a path-killing function"); }
;`

// silentTrees are the trees the oracle runs over.
func silentTrees(t *testing.T) map[string]map[string]string {
	t.Helper()
	trees := map[string]map[string]string{}
	for _, dir := range []string{"corpus", "rootorder"} {
		paths, err := filepath.Glob(filepath.Join("..", "testdata", dir, "*.c"))
		if err != nil || len(paths) == 0 {
			t.Fatalf("%s: %v, %d files", dir, err, len(paths))
		}
		srcs := map[string]string{}
		for _, path := range paths {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			srcs[filepath.Base(path)] = string(data)
		}
		trees[dir] = srcs
	}
	trees["mixed"], _ = workload.MixedTree(3, 10, 2002)
	trees["call-rich"] = workload.CallRichTree()
	trees["linux-like"] = workload.LinuxLike(3, 12, 2002)
	return trees
}

// silentAnalyzer loads the bundled checkers and the given extras.
func silentAnalyzer(t *testing.T, srcs map[string]string, extras []string, store cache.Store) *Analyzer {
	t.Helper()
	a := NewAnalyzer()
	if err := a.Configure(RunConfig{Jobs: 2, CacheStore: store}); err != nil {
		t.Fatal(err)
	}
	for name, src := range srcs {
		a.AddSource(name, src)
	}
	for _, c := range BundledCheckers() {
		if err := a.LoadBundledChecker(c.Name); err != nil {
			t.Fatal(err)
		}
	}
	for _, src := range extras {
		if err := a.LoadChecker(src); err != nil {
			t.Fatal(err)
		}
	}
	a.MarkFunction("net_wait", "blocking")
	a.MarkFunction("die_if", "pathkill")
	return a
}

// TestSilentUnitsSkipEveryRoot: over every tree and every checker, each
// unit tasks settles as silent has SkipRoot hold for each of its roots
// once its bodies are built, and a forced live run of it on the
// checker's engine returns the settled cut and no report. A run without
// a store settles the same units: it never builds a unit every checker
// is silent over, a checker with one live task beside the settled one
// adopts that task's Analyses map, and it reports and counts what a run
// with a store does, RootsSkipped and ASTsReleased included.
func TestSilentUnitsSkipEveryRoot(t *testing.T) {
	quietBodies := 0 // over the trees, the bodies of units every bundled checker is silent over
	for tree, srcs := range silentTrees(t) {
		for _, extras := range [][]string{silentExtras, nil} {
			name := tree
			if extras == nil {
				name += ", bundled checkers only"
			}
			quietBodies += silentOracle(t, name, srcs, extras)
		}
	}
	t.Logf("%d bodies in units every bundled checker is silent over", quietBodies)
	if quietBodies == 0 {
		t.Error("no unit is silent for every bundled checker: the run without a store builds every unit")
	}
}

// silentOracle is TestSilentUnitsSkipEveryRoot over one tree and the
// bundled checkers with the given extras. It returns the count of the
// bodies of the units every checker is silent over.
func silentOracle(t *testing.T, name string, srcs map[string]string, extras []string) (quietBodies int) {
	a := silentAnalyzer(t, srcs, extras, nil)
	files, err := a.skimSources(&IncrStats{})
	if err != nil {
		t.Fatal(err)
	}
	tree := NewUnitTree(files)
	p := tree.Prog
	compiled := core.CompileDispatch(p, a.checkers)
	shared := a.preMarked()
	silent := make([][]*prog.Unit, len(a.checkers))
	silentFor := make([]int, len(p.Units())) // by Unit.Index: the checkers silent over it
	settled := 0
	for ci, c := range a.checkers {
		for _, task := range tree.tasks(ci, c, compiled, ci, a.opts, shared) {
			if !task.silent {
				continue
			}
			roots := 0
			for _, u := range task.units {
				roots += len(u.Roots)
				silentFor[u.Index]++
			}
			if want := (core.UnitCut{Stats: core.Stats{RootsSkipped: int64(roots)}, Complete: true}); !reflect.DeepEqual(task.cut, want) || task.key != "" || len(task.runs) > 0 {
				t.Errorf("%s: %s: settled task %+v", name, c.Name, task)
			}
			silent[ci] = task.units
			settled += len(task.units)
		}
	}
	if settled == 0 {
		t.Fatalf("%s: no unit is silent for any checker: the oracle is vacuous", name)
	}
	built := 0 // the bodies of units some checker is not silent over
	for _, u := range p.Units() {
		if silentFor[u.Index] < len(a.checkers) {
			built += len(u.Funcs)
		}
	}
	quietBodies = len(p.All) - built
	plainTasks(t, name, a, silent)

	if _, err := p.BuildUnits(p.Units(), 1); err != nil {
		t.Fatal(err)
	}
	compiled.AddUnits(p.Units())
	for ci, c := range a.checkers {
		for _, u := range silent[ci] {
			for _, root := range u.Roots {
				if !compiled.SkipRoot(ci, root) {
					t.Errorf("%s: %s: unit of %s settled as silent, but SkipRoot does not hold for root %s",
						name, c.Name, u.Funcs[0].Name, root.Name)
				}
			}
			en := a.liveEngine(p, ci, compiled, shared)
			runs := en.RunRootsContext(context.Background(), u.Roots)
			cut := en.CutUnit()
			if len(cut.Stats.Analyses) == 0 {
				cut.Stats.Analyses = nil
			}
			if len(cut.Rules) == 0 {
				cut.Rules = nil
			}
			want := core.UnitCut{Stats: core.Stats{RootsSkipped: int64(len(u.Roots))}, Complete: true}
			if len(runs) > 0 || !reflect.DeepEqual(cut, want) {
				t.Errorf("%s: %s: a live run of the silent unit of %s cut %+v with %d reporting roots, want %+v and none",
					name, c.Name, u.Funcs[0].Name, cut, len(runs), want)
			}
		}
	}

	plain, err := silentAnalyzer(t, srcs, extras, nil).RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	cached, err := silentAnalyzer(t, srcs, extras, cache.NewMemStore()).RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got, want := streamDigest(cached), streamDigest(plain); got != want {
		t.Errorf("%s: the run with a store reports otherwise than the plain run", name)
	}
	if !reflect.DeepEqual(cached.Stats, plain.Stats) {
		t.Errorf("%s: stats with a store\n%v\nwithout\n%v", name, cached.Stats, plain.Stats)
	}
	if cached.Incr.UnitsSilent != settled {
		t.Errorf("%s: the run settled %d pairs as silent, tasks %d", name, cached.Incr.UnitsSilent, settled)
	}
	if plain.Spill.ASTsReleased != int64(built) || cached.Spill.ASTsReleased != int64(built) {
		t.Errorf("%s: ASTs released: %d without a store, %d with one; want the %d bodies of units some checker is not silent over",
			name, plain.Spill.ASTsReleased, cached.Spill.ASTsReleased, built)
	}
	return quietBodies
}

// plainTasks holds a tree without a store (RunContext's) to the keyed
// tree's silent units, by checker: each checker's tasks settle the same
// units, a unit every checker is silent over is never built, and a
// checker with one live task beside the settled one adopts the live
// task's Analyses map.
func plainTasks(t *testing.T, name string, a *Analyzer, silent [][]*prog.Unit) {
	t.Helper()
	files, err := a.skimSources(&IncrStats{})
	if err != nil {
		t.Fatal(err)
	}
	tree := newUnitTree(files, false)
	p := tree.Prog
	compiled := core.CompileDispatch(p, a.checkers)
	shared := a.preMarked()
	byChecker := make([][]*unitTask, len(a.checkers))
	var all []*unitTask
	for ci, c := range a.checkers {
		byChecker[ci] = tree.tasks(ci, c, compiled, ci, a.opts, shared)
		all = append(all, byChecker[ci]...)
		var got []int
		for _, task := range byChecker[ci] {
			if task.silent {
				for _, u := range task.units {
					got = append(got, u.Index)
				}
			} else if task.key != "" || task.replayed {
				t.Errorf("%s: %s: a task without a store is keyed or replayed: %+v", name, c.Name, task)
			}
		}
		var want []int
		for _, u := range silent[ci] {
			want = append(want, u.Index)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: %s: without a store the units settled are %v, with one %v", name, c.Name, got, want)
		}
	}
	builtByPass1 := make([]bool, len(p.All))
	for _, fn := range p.All {
		builtByPass1[fn.Index] = fn.Graph != nil
	}
	if _, err := tree.build(all, 1, func(int) *core.CompiledDispatch { return compiled }); err != nil {
		t.Fatal(err)
	}
	for _, u := range p.Units() {
		quiet := true
		for ci := range a.checkers {
			quiet = quiet && slices.Contains(silent[ci], u)
		}
		for _, fn := range u.Funcs {
			if quiet && fn.Graph != nil && !builtByPass1[fn.Index] {
				t.Errorf("%s: %s is built, though every checker is silent over its unit", name, fn.Name)
			}
		}
	}
	runLive(context.Background(), make(chan struct{}, 1), all, func(ci int) *core.Engine {
		return a.liveEngine(p, ci, compiled, shared)
	}, nil)
	for ci, c := range a.checkers {
		tasks := byChecker[ci]
		if len(tasks) != 2 || !tasks[0].silent {
			continue
		}
		live := tasks[1].cut.Stats.Analyses
		if got := taskStats(tasks).Analyses; live == nil || reflect.ValueOf(got).Pointer() != reflect.ValueOf(live).Pointer() {
			t.Errorf("%s: %s: a settled task and a live one merge into a new Analyses map, not the live task's", name, c.Name)
		}
	}
}
