package mc

// The silent-unit rule (DESIGN.md §8 "Unit of work"): a keyed run
// settles a (checker, unit) pair without the store when the unit calls
// none of the checker's trigger names, on the strength of the depth-1
// argument SkipRoot makes (§11.2). This holds the rule to SkipRoot over
// built bodies, and the settled cut to the one a live run cuts.

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/prog"
	"repro/internal/workload"
)

// silentExtras are checkers beside the bundled ones whose initial
// transitions are not all call-keyed: a shape ({ *v }) that fires in
// almost any unit, the same beside a call, and a callout a call shape
// carries. A rule that read their names wrongly would settle a unit
// they fire in.
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

func silentAnalyzer(t *testing.T, srcs map[string]string, store cache.Store) *Analyzer {
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
	for _, src := range silentExtras {
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
// checker's engine returns the settled cut and no report. A run with a
// store reports and counts what a run without one does, RootsSkipped
// included.
func TestSilentUnitsSkipEveryRoot(t *testing.T) {
	for name, srcs := range silentTrees(t) {
		a := silentAnalyzer(t, srcs, nil)
		files, err := a.skimSources(&IncrStats{})
		if err != nil {
			t.Fatal(err)
		}
		tree := NewUnitTree(files)
		p := tree.Prog
		compiled := core.CompileDispatch(p, a.checkers)
		shared := a.preMarked()
		silent := make([][]*prog.Unit, len(a.checkers))
		settled := 0
		for ci, c := range a.checkers {
			for _, task := range tree.tasks(ci, c, compiled, ci, a.opts, shared) {
				if !task.silent {
					continue
				}
				roots := 0
				for _, u := range task.units {
					roots += len(u.Roots)
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

		if _, err := p.BuildUnits(p.Units(), 1); err != nil {
			t.Fatal(err)
		}
		compiled.AddUnits(p, p.Units())
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

		plain, err := silentAnalyzer(t, srcs, nil).RunContext(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		cached, err := silentAnalyzer(t, srcs, cache.NewMemStore()).RunContext(context.Background())
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
	}
}
