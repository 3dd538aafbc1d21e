package core

// Compiled multi-checker dispatch tests (DESIGN.md §11): the union
// automaton must (a) skip exactly the (checker, root) pairs that
// provably fire nothing, and (b) never change which reports an engine
// emits — indexed, brute-force or compiled by the engine for itself,
// the output is identical.

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/cc"
	"repro/internal/cfg"
	"repro/internal/checkers"
	"repro/internal/metal"
	"repro/internal/pattern"
	"repro/internal/prog"
	"repro/internal/workload"
)

func mustChecker(t testing.TB, src string) *metal.Checker {
	t.Helper()
	c, err := metal.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// skipsEvery reports whether checker ci skips every root of p.
func skipsEvery(cd *CompiledDispatch, ci int, p *prog.Program) bool {
	for _, root := range p.Roots {
		if !cd.SkipRoot(ci, root) {
			return false
		}
	}
	return true
}

// TestDispatchWholeCheckerSkip: in a program that only frees, the lock
// checker's initial transitions can never fire, so the compiler proves
// it a no-op over every root; the free checker stays live at each.
func TestDispatchWholeCheckerSkip(t *testing.T) {
	free := mustChecker(t, checkers.Free)
	lock := mustChecker(t, checkers.Lock)
	p := buildProg(t, map[string]string{"a.c": `
void kfree(void *p);
int f(int *p) { kfree(p); return *p; }
`})
	cd := CompileDispatch(p, []*metal.Checker{free, lock})
	for _, root := range p.Roots {
		if !cd.SkipRoot(1, root) {
			t.Errorf("SkipRoot(lock, %s) = false, want true", root.Name)
		}
		if cd.SkipRoot(0, root) {
			t.Errorf("SkipRoot(free, %s) = true, want false", root.Name)
		}
	}
}

// TestDispatchPerRootSkip: two disjoint call trees — the free checker
// is skippable over the lock-only root and vice versa, even though
// neither is skippable program-wide.
func TestDispatchPerRootSkip(t *testing.T) {
	free := mustChecker(t, checkers.Free)
	lock := mustChecker(t, checkers.Lock)
	p := buildProg(t, map[string]string{"a.c": `
void kfree(void *p);
void lock(void *l);
void unlock(void *l);
void free_leaf(int *p) { kfree(p); }
void lock_leaf(int *l) { lock(l); unlock(l); }
int free_root(int *p) { free_leaf(p); return 0; }
int lock_root(int *l) { lock_leaf(l); return 0; }
`})
	cd := CompileDispatch(p, []*metal.Checker{free, lock})
	if skipsEvery(cd, 0, p) || skipsEvery(cd, 1, p) {
		t.Fatal("neither checker is skippable program-wide here")
	}
	freeRoot := p.Lookup("free_root")
	lockRoot := p.Lookup("lock_root")
	if freeRoot == nil || lockRoot == nil {
		t.Fatal("roots not found")
	}
	if cd.SkipRoot(0, freeRoot) {
		t.Error("free checker must run over free_root")
	}
	if !cd.SkipRoot(0, lockRoot) {
		t.Error("free checker should skip lock_root: no kfree in its closure")
	}
	if cd.SkipRoot(1, lockRoot) {
		t.Error("lock checker must run over lock_root")
	}
	if !cd.SkipRoot(1, freeRoot) {
		t.Error("lock checker should skip free_root: no lock-family callee in its closure")
	}
	// An unknown function (not a root) stays conservative.
	if cd.SkipRoot(0, p.Lookup("free_leaf")) {
		t.Error("non-root lookup must not claim a skip")
	}
}

// TestDispatchGlobalCheckerNotOverSkipped: interrupt is a pure
// global-state checker with an $end_of_path$ transition reachable from
// a non-initial state; only the cli/sti literals gate its initial
// state, so a cli-free program skips it but a cli-bearing one must not.
func TestDispatchGlobalCheckerNotOverSkipped(t *testing.T) {
	intr := mustChecker(t, checkers.Interrupt)
	noCli := buildProg(t, map[string]string{"a.c": "int f(void) { return 1; }"})
	cd := CompileDispatch(noCli, []*metal.Checker{intr})
	if !skipsEvery(cd, 0, noCli) {
		t.Error("interrupt checker should skip a program with no cli/sti")
	}
	withCli := buildProg(t, map[string]string{"a.c": `
void cli(void);
int f(void) { cli(); return 1; }
`})
	cd = CompileDispatch(withCli, []*metal.Checker{intr})
	if skipsEvery(cd, 0, withCli) {
		t.Error("interrupt checker must run: cli() starts the protocol")
	}
}

// bundledSuite parses the bundled checkers, in load order.
func bundledSuite(t testing.TB) []*metal.Checker {
	t.Helper()
	var cs []*metal.Checker
	for _, s := range checkers.All() {
		cs = append(cs, mustChecker(t, s.Text))
	}
	return cs
}

// suiteRun is what one full-suite run exposes per checker, in load
// order: the report stream in emission order, the rule counts, and the
// composition marks it emitted.
type suiteRun struct {
	reports [][]string
	rules   []map[string]RuleCount
	marks   [][]MarkEvent
}

// bruteDispatch fills a CompiledDispatch's admit tables by the
// reference gate: every filter atom of every transition against every
// block's features, with no index in between; its root skips are
// referenceLive's.
func bruteDispatch(p *prog.Program, cs []*metal.Checker) *CompiledDispatch {
	cd := newDispatch(p, cs)
	var feats blockFeats
	cd.fillUnits(p.Units(), func(b *cfg.Block, bits bitset) {
		feats.load(b)
		for id, atoms := range cd.entries {
			for _, a := range atoms {
				if feats.admits(a) {
					bits.set(int32(id))
					break
				}
			}
		}
	})
	referenceLive(p, cd)
	return cd
}

// referenceLive replaces cd's root skips by the reference the name rule
// (fillLive) stands in for, read from built bodies: a root's live set
// holds each checker with an end-of-path initial transition, or with an
// initial entry that some block of the root's callee closure admits
// (blockAdmit). Every body must be built and in cd's admit tables.
func referenceLive(p *prog.Program, cd *CompiledDispatch) {
	stride := (len(cd.checkers) + 63) / 64 * 64
	cd.live = newBitset(len(p.All) * stride)
	for i := range cd.live {
		cd.live[i] = ^uint64(0)
	}
	for _, root := range p.Roots {
		admit := newBitset(len(cd.entries))
		seen := map[*prog.Function]bool{root: true}
		for work := []*prog.Function{root}; len(work) > 0; {
			fn := work[len(work)-1]
			work = work[:len(work)-1]
			for _, bits := range cd.blockAdmit[fn.Index] {
				admit.or(bits)
			}
			for _, c := range fn.Callees {
				if !seen[c] {
					seen[c] = true
					work = append(work, c)
				}
			}
		}
		for ci := range cd.checkers {
			if !cd.initEOP[ci] && !admit.anyOf(cd.initEntries[ci]) {
				cd.live[(root.Index*stride+ci)/64] &^= 1 << uint((root.Index*stride+ci)%64)
			}
		}
	}
}

// skimmedDispatch assembles srcs from pass 1 and compiles the checkers'
// dispatch with no body built, so its root skips are read from the skim
// alone; then it builds every body and adds the admit tables. It
// returns the dispatch and a copy whose root skips are referenceLive's.
func skimmedDispatch(t testing.TB, srcs map[string]string, cs []*metal.Checker) (p *prog.Program, cd, ref *CompiledDispatch) {
	t.Helper()
	files, err := cc.SkimFiles(srcs, 1)
	if err != nil {
		t.Fatalf("does not skim: %v", err)
	}
	p = prog.Assemble(files...)
	cd = CompileDispatch(p, cs)
	if _, err := p.BuildUnits(p.Units(), 1); err != nil {
		t.Fatalf("does not build: %v", err)
	}
	cd.AddUnits(p.Units())
	copied := *cd
	referenceLive(p, &copied)
	return p, cd, &copied
}

// TestSkipRootMatchesReference: for the bundled suite the name rule,
// read from pass 1 before any body is built, skips exactly the
// (checker, root) pairs the block-admit closure over the built bodies
// skips. A rule that skips more than the reference is unsound; one that
// skips less costs CPU.
func TestSkipRootMatchesReference(t *testing.T) {
	dir := func(name string) map[string]string {
		paths, err := filepath.Glob(filepath.Join("../../testdata", name, "*.c"))
		if err != nil || len(paths) == 0 {
			t.Fatalf("testdata/%s: %v, %d files", name, err, len(paths))
		}
		srcs := map[string]string{}
		for _, path := range paths {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			srcs[filepath.Base(path)] = string(data)
		}
		return srcs
	}
	mixed, _ := workload.MixedTree(12, 25, 2002)
	cs := bundledSuite(t)
	for _, tree := range []digestTree{
		{"CallRichTree", workload.CallRichTree()},
		{"MixedTree(12,25,2002)", mixed},
		{"LinuxLike(3,12,2002)", workload.LinuxLike(3, 12, 2002)},
		{"testdata/corpus", dir("corpus")},
		{"testdata/rootorder", dir("rootorder")},
	} {
		p, cd, ref := skimmedDispatch(t, tree.srcs, cs)
		skips := 0
		for ci, c := range cs {
			for _, root := range p.Roots {
				got, want := cd.SkipRoot(ci, root), ref.SkipRoot(ci, root)
				if got != want {
					t.Errorf("%s: %s: SkipRoot(%s) = %v, the reference's %v", tree.name, c.Name, root.Name, got, want)
				}
				if got {
					skips++
				}
			}
		}
		t.Logf("%s: %d of %d (checker, root) pairs skipped", tree.name, skips, len(cs)*len(p.Roots))
		if skips == 0 {
			t.Errorf("%s: no pair skipped: the comparison is vacuous", tree.name)
		}
	}
}

// How runSuite's engines get their dispatch.
const (
	dispatchIndexed = iota // one CompileDispatch over the suite, SetCompiled on each
	dispatchBrute          // the same, filled by bruteDispatch
	dispatchOwn            // no SetCompiled: each engine compiles its own checker
)

// suiteEngines runs checkers cs over p phase by phase over one shared
// annotation store (the -j 1 schedule), every engine attached to cd —
// or, for a nil cd, each compiling its own checker — and returns the
// engines in load order.
func suiteEngines(p *prog.Program, cs []*metal.Checker, cd *CompiledDispatch) []*Engine {
	shared := NewShared()
	shared.Mark("net_wait", "blocking")
	shared.Mark("disk_sync", "blocking")
	engines := make([]*Engine, len(cs))
	for i, c := range cs {
		engines[i] = NewEngineShared(p, c, DefaultOptions(), shared)
		if cd != nil {
			engines[i].SetCompiled(cd, i)
		}
	}
	for _, phase := range PlanPhases(cs) {
		for _, i := range phase {
			engines[i].RunContext(context.Background())
		}
	}
	return engines
}

// runSuite applies the whole bundled suite to a fresh build of srcs
// (suiteEngines).
func runSuite(t *testing.T, srcs map[string]string, dispatch int) suiteRun {
	t.Helper()
	p := buildProg(t, srcs)
	cs := bundledSuite(t)
	var cd *CompiledDispatch
	switch dispatch {
	case dispatchIndexed:
		cd = CompileDispatch(p, cs)
	case dispatchBrute:
		cd = bruteDispatch(p, cs)
	}

	var out suiteRun
	for _, en := range suiteEngines(p, cs, cd) {
		var keys []string
		for _, r := range en.Reports.Reports {
			keys = append(keys, fmt.Sprintf("%s|%s|%s|%s|%s", r.Pos, r.Checker, r.Rule, r.Class, r.Msg))
		}
		rules := map[string]RuleCount{}
		for rule, rc := range en.RuleStats {
			rules[rule] = *rc
		}
		out.reports = append(out.reports, keys)
		out.rules = append(out.rules, rules)
		out.marks = append(out.marks, en.MarkLog)
	}
	return out
}

// TestDispatchEquivalence: the index changes no output byte. Over the
// seeded mixed tree and a call-rich multi-root tree, the indexed
// dispatcher's admit tables equal the brute-force reference's
// bit for bit, and the full bundled suite emits each checker's report
// stream (in emission order), rule counts and mark log identically
// whether its engines share the indexed dispatch, share the reference,
// or are left to compile their own checker each.
func TestDispatchEquivalence(t *testing.T) {
	mixed, _ := workload.MixedTree(4, 25, 2002)
	for _, tc := range []struct {
		name string
		srcs map[string]string
	}{{"mixed", mixed}, {"call-rich", workload.CallRichTree()}} {
		t.Run(tc.name, func(t *testing.T) {
			p := buildProg(t, tc.srcs)
			cs := bundledSuite(t)
			indexed, brute := CompileDispatch(p, cs), bruteDispatch(p, cs)
			if !reflect.DeepEqual(indexed.blockAdmit, brute.blockAdmit) {
				t.Error("the indexed dispatcher's admit tables differ from the brute-force reference's")
			}

			ref := runSuite(t, tc.srcs, dispatchBrute)
			total := 0
			for _, leg := range []struct {
				name     string
				dispatch int
			}{{"indexed", dispatchIndexed}, {"own", dispatchOwn}} {
				got := runSuite(t, tc.srcs, leg.dispatch)
				for i, s := range checkers.All() {
					total += len(ref.reports[i])
					if !reflect.DeepEqual(ref.reports[i], got.reports[i]) {
						t.Errorf("%s, %s dispatch changed reports:\n  reference: %v\n  got:       %v",
							s.Name, leg.name, ref.reports[i], got.reports[i])
					}
					if !reflect.DeepEqual(ref.rules[i], got.rules[i]) {
						t.Errorf("%s, %s dispatch changed rule counts:\n  reference: %v\n  got:       %v",
							s.Name, leg.name, ref.rules[i], got.rules[i])
					}
					if !reflect.DeepEqual(ref.marks[i], got.marks[i]) {
						t.Errorf("%s, %s dispatch changed the mark log:\n  reference: %v\n  got:       %v",
							s.Name, leg.name, ref.marks[i], got.marks[i])
					}
				}
			}
			if total == 0 {
				t.Fatal("reference run produced no reports; the comparison is vacuous")
			}
		})
	}
}

// callToIdiomCheckers are the bundled checkers written entirely in the
// §4 idiom "{ fn(args) } && ${ mc_is_call_to(fn, "name") }".
var callToIdiomCheckers = map[string]bool{"banned": true, "sec-annotator": true, "panic-marker": true}

// TestCallToIdiomSkipsEveryRoot: the seeded mixed tree calls none of
// the idiom checkers' names, so the callee index proves each a no-op
// over every root — counted in Stats.RootsSkipped — and they traverse
// nothing. For every checker, a run traverses no block exactly when it
// skipped every root.
func TestCallToIdiomSkipsEveryRoot(t *testing.T) {
	mixed, _ := workload.MixedTree(4, 25, 2002)
	p := buildProg(t, mixed)
	cs := bundledSuite(t)
	engines := suiteEngines(p, cs, CompileDispatch(p, cs))
	for i, s := range checkers.All() {
		st := engines[i].Stats
		if all := st.RootsSkipped == int64(len(p.Roots)); all != (st.Blocks == 0) {
			t.Errorf("%s: RootsSkipped %d of %d roots, yet Blocks %d", s.Name, st.RootsSkipped, len(p.Roots), st.Blocks)
		}
		if callToIdiomCheckers[s.Name] && (st.RootsSkipped != int64(len(p.Roots)) || st.Blocks != 0 || st.Points != 0) {
			t.Errorf("%s: RootsSkipped %d of %d roots, Blocks %d, Points %d; want every root skipped, nothing traversed",
				s.Name, st.RootsSkipped, len(p.Roots), st.Blocks, st.Points)
		}
	}
}

// TestPanicMarkerTraversesDieIf: on the call-rich tree the index keys
// panic-marker by "panic", so it still traverses root_kill — the one
// root whose callee closure reaches die_if's panic("bad") — skips the
// other seven, and marks exactly what it marked when it traversed every
// root: panic, pathkill.
func TestPanicMarkerTraversesDieIf(t *testing.T) {
	p := buildProg(t, workload.CallRichTree())
	cs := bundledSuite(t)
	cd := CompileDispatch(p, cs)
	engines := suiteEngines(p, cs, cd)
	for i, s := range checkers.All() {
		if s.Name != "panic-marker" {
			continue
		}
		for _, root := range p.Roots {
			if got, want := cd.SkipRoot(i, root), root.Name != "root_kill"; got != want {
				t.Errorf("SkipRoot(panic-marker, %s) = %v, want %v", root.Name, got, want)
			}
		}
		en := engines[i]
		if en.Stats.RootsSkipped != int64(len(p.Roots)-1) || en.Stats.Blocks == 0 || en.Analyses("die_if") == 0 {
			t.Errorf("panic-marker: RootsSkipped %d of %d, Blocks %d, die_if analysed %d times; want one root traversed through die_if",
				en.Stats.RootsSkipped, len(p.Roots), en.Stats.Blocks, en.Analyses("die_if"))
		}
		if want := []MarkEvent{{Name: "panic", Key: "pathkill"}}; !reflect.DeepEqual(en.MarkLog, want) {
			t.Errorf("panic-marker marks %v, want %v", en.MarkLog, want)
		}
	}
}

// wrappedGets reports gets and, through an overriding mc_is_call_to,
// any wrapper whose name ends in "gets".
const wrappedGets = `
sm wrapped_gets;
decl any_fn_call fn;
decl any_arguments args;

start:
    { fn(args) } && ${ mc_is_call_to(fn, "gets") } ==> start, { err("gets or a wrapper of it"); }
;
`

// TestCallToOverrideKeepsCallAtom: a checker whose own Callouts
// override mc_is_call_to (mc.Analyzer.LoadCheckerWithCallouts) keeps the
// name-free call atom, so a root that calls only my_gets is not skipped
// and the override fires there — under a shared dispatch exactly as
// with none attached. Without the override the builtin's meaning keys
// the entry by "gets" and the root is skipped.
func TestCallToOverrideKeepsCallAtom(t *testing.T) {
	p := buildProg(t, map[string]string{"a.c": `
char *my_gets(char *b);
int reader(char *b) { my_gets(b); return 0; }
`})
	root := p.Lookup("reader")
	builtin := mustChecker(t, wrappedGets)
	if cd := CompileDispatch(p, []*metal.Checker{builtin}); !cd.SkipRoot(0, root) {
		t.Error("builtin mc_is_call_to: SkipRoot(reader) = false, want true (reader never calls gets)")
	}

	override := func() *metal.Checker {
		c := mustChecker(t, wrappedGets)
		c.Callouts["mc_is_call_to"] = func(ctx *pattern.Ctx, args []pattern.CalloutArg) bool {
			call, ok := args[0].Binding.Expr.(*cc.CallExpr)
			return ok && strings.HasSuffix(cc.CalleeName(call), args[1].Str)
		}
		return c
	}
	c := override()
	cd := CompileDispatch(p, []*metal.Checker{mustChecker(t, checkers.Free), c})
	if want := []filterAtom{{kind: kindCall}}; !reflect.DeepEqual(cd.entries[cd.firstEntry[1]], want) {
		t.Errorf("overridden mc_is_call_to: atoms %+v, want the name-free call atom %+v", cd.entries[cd.firstEntry[1]], want)
	}
	if cd.SkipRoot(1, root) {
		t.Error("overridden mc_is_call_to: SkipRoot(reader) = true, want false")
	}
	attached := NewEngine(p, c, DefaultOptions())
	attached.SetCompiled(cd, 1)
	alone := NewEngine(p, override(), DefaultOptions())
	got, want := reportKeys(attached.RunContext(context.Background())), reportKeys(alone.RunContext(context.Background()))
	if len(want) != 1 || !reflect.DeepEqual(got, want) {
		t.Errorf("reports under the shared dispatch %v, with none attached %v; want the one my_gets report in both", got, want)
	}
}
