package core

import (
	"context"
	"sort"
	"testing"
	"time"

	"repro/internal/cc"
	"repro/internal/checkers"
	"repro/internal/metal"
	"repro/internal/prog"
	"repro/internal/workload"
)

// parseSorted parses a source tree in file-name order.
func parseSorted(tb testing.TB, srcs map[string]string) []*cc.File {
	tb.Helper()
	names := make([]string, 0, len(srcs))
	for n := range srcs {
		names = append(names, n)
	}
	sort.Strings(names)
	files := make([]*cc.File, len(names))
	for i, n := range names {
		f, err := cc.ParseFile(n, srcs[n])
		if err != nil {
			tb.Fatal(err)
		}
		files[i] = f
	}
	return files
}

// benchInputs parses a seeded workload and one bundled checker once,
// outside any timed loop.
func benchInputs(b *testing.B) ([]*cc.File, *metal.Checker) {
	srcs, _ := workload.MixedTree(2, 10, 7)
	src, ok := checkers.Lookup("lock")
	if !ok {
		b.Fatal("bundled checker lock missing")
	}
	c, err := metal.Parse(src.Text)
	if err != nil {
		b.Fatal(err)
	}
	return parseSorted(b, srcs), c
}

// BenchmarkBlockTraversal runs a full engine traversal over a seeded
// workload with one bundled checker. Each iteration rebuilds the
// Program from the parsed files so every engine starts cold without
// re-paying parse time (Programs no longer retain their files).
func BenchmarkBlockTraversal(b *testing.B) {
	files, c := benchInputs(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		NewEngine(prog.Build(files...), c, DefaultOptions()).RunContext(context.Background())
	}
}

// suiteInputs parses the call-rich tree and the whole bundled suite
// once — the cold-calls benchmark workload in miniature: every bug of
// the tree shows only across calls, so summaries, refine/restore and
// the per-path FPP state all do the work.
func suiteInputs(tb testing.TB) ([]*cc.File, []*metal.Checker) {
	tb.Helper()
	return parseSorted(tb, workload.CallRichTree()), bundledSuite(tb)
}

// runCallRich is one cold run: every bundled checker in order over a
// fresh Program, sharing one annotation store and — as in every mc run
// — one compiled dispatch. The mode is a sub-benchmark's name: "plain";
// "governed" runs it the way every governed caller does when nothing is
// cut, a cancellable context and budgets that never trip; "retiring"
// sets every engine retiring, as mc does, so that each unit's funcInfos
// go to the engine's pool when it is done and the next unit's functions
// are carved from them. It returns the report count so callers can
// check the run did something.
func runCallRich(files []*cc.File, suite []*metal.Checker, mode string) int {
	p := prog.Build(files...)
	shared := NewShared()
	shared.Mark("net_wait", "blocking")
	opts, ctx := DefaultOptions(), context.Background()
	if mode == "governed" {
		opts.Budgets = Budgets{PathSteps: 1 << 40, FuncBlocks: 1 << 40, FuncTime: time.Hour}
		var cancel context.CancelFunc
		ctx, cancel = context.WithCancel(ctx)
		defer cancel()
	}
	cd := CompileDispatch(p, suite)
	reports := 0
	for i, c := range suite {
		en := NewEngineShared(p, c, opts, shared)
		en.SetCompiled(cd, i)
		if mode == "retiring" {
			en.SetRetire(nil)
		}
		reports += len(en.RunContext(ctx).Reports)
	}
	return reports
}

// callRichModes are BenchmarkCallRichTraversal's sub-benchmarks.
var callRichModes = []string{"plain", "governed", "retiring"}

// BenchmarkCallRichTraversal is BenchmarkBlockTraversal for the
// interprocedural half of the engine (`make profile` profiles plain and
// retiring). governed/plain, read with -count N, is what governance
// costs when it never fires (DESIGN.md §9.6); retiring/plain is what
// retirement and the pool of evicted funcInfos save (§12.1).
func BenchmarkCallRichTraversal(b *testing.B) {
	files, suite := suiteInputs(b)
	for _, mode := range callRichModes {
		b.Run(mode, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				runCallRich(files, suite, mode)
			}
		})
	}
}

// callRichAllocCeiling bounds the heap allocations of one runCallRich.
// It is set about 6 % above the measured 1,407 (go1.24; governed 1,411,
// retiring 1,417; 1,466-1,479 under -race, three runs), since a path
// allocates only what outlives it: the dispatch compiler carves every
// admit set from one array and reuses one feature scratch across blocks
// (~3 objects per block before), the report set is probed with a
// comparable key before a Report is built, why-trace lines are rendered
// only for a kept report, and block recorders and the cache filter
// reuse the engine's arrays. It was 2,476 over 1,660 (governed 1,664,
// retiring 1,670) before that, set about 5 % above the measured 2,358
// (governed 2,363); the run measured 1,660 (governed 1,663): 1,752 when the
// front end went lean, all of that fall in prog.Build, which every run
// here pays, then 28 fewer when the engine kept one FPP table and
// carved four-key fpSeen slots (~1,795 under -race then), then 64 fewer
// when each engine stopped copying the action verbs into a map of its
// own. Pooling evicted funcInfos left plain at 1,660 and governed at
// 1,664 (their engines never retire); retiring, every engine retiring as
// in an mc run, reads 1,670: one rootsRun slice per engine, less the
// funcInfos, block arrays and slab chunks later units took from the
// pool, on a tree whose 16 engines run few units each. The count
// repeats to the unit, so a regression in the per-path state (fpp.Env,
// edge sets, fpSeen), in pattern dispatch (DESIGN.md §10.1), in what
// prog.Build holds for every engine or in what the engine, the funcInfo
// and the instance own for the DFS (§5) fails here without a timer;
// TestTraversalMarginalAllocs says which. The same run, same dispatch,
// allocated 5,140 objects while every split copied both stacks, every
// edge set owned its first edge and every dispatch built its context
// and prior, 6,068 before the program model moved into prog.Build,
// 3,442 (ceiling 3,600) while every binding match built a map and every
// duplicate report was rendered before the set dropped it, 3,082
// (ceiling 3,240) while every split allocated its path state and fact
// array and every witness event its own list cell, and 2,897 (ceiling
// 3,042) while banned, sec-annotator and panic-marker traversed every
// root that makes a call, their mc_is_call_to conjuncts outside the
// callee index (DESIGN.md §11.1), and 2,489 (ceiling 2,613) while a tuple
// was four strings: every distinct tuple rendered its key into a map,
// and every engine built two StateRef-keyed maps of per-state slices
// where it now numbers its checker's states into flat arrays (§10.3),
// and 2,368 (ceiling 2,487) while every path logged its branch,
// assignment and havoc events for the verdict tier. 2,358 is while
// prog.Build made every CFG block, successor list and predecessor list
// an object of its own, a type-checker map per block scope and a
// signature per reference to a function (TestFrontEndAllocs in
// internal/prog gates that half alone).
// The governed and retiring runs sit under the same ceiling (+4, its
// context; +10): step counters and amortized polls allocate nothing.
const callRichAllocCeiling = 1_495

func TestCallRichTraversalAllocs(t *testing.T) {
	files, suite := suiteInputs(t)
	plain := runCallRich(files, suite, "plain")
	if plain == 0 {
		t.Fatal("the suite reported nothing on the call-rich tree")
	}
	for _, mode := range callRichModes {
		if got := runCallRich(files, suite, mode); got != plain {
			t.Errorf("%s run: %d reports, plain run has %d", mode, got, plain)
		}
		got := testing.AllocsPerRun(5, func() { runCallRich(files, suite, mode) })
		t.Logf("%s: %.0f allocations per suite run (ceiling %d)", mode, got, callRichAllocCeiling)
		if got > callRichAllocCeiling {
			t.Errorf("%s: %.0f allocations per suite run, ceiling %d", mode, got, callRichAllocCeiling)
		}
	}
}

// BenchmarkInstanceClone measures the per-clone cost of an instance
// with a shared cons-list trace. Cloning happens at every path split
// and call boundary for every active instance, so this is the engine's
// hottest allocation site.
func BenchmarkInstanceClone(b *testing.B) {
	in := &Instance{v: 1, obj: 1, val: 3}
	for i := 0; i < 8; i++ {
		in.trace = in.trace.push(traceMoves, nil, "locked", "unlocked")
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if cp := in.clone(); cp.trace != in.trace {
			b.Fatal("clone must share the trace")
		}
	}
}

// dispatchTree builds the MixedTree of the given size once, for the
// dispatch compiler, and counts its blocks.
func dispatchTree(tb testing.TB, files, funcsPerFile int) (*prog.Program, int) {
	tb.Helper()
	srcs, _ := workload.MixedTree(files, funcsPerFile, 2002)
	p := prog.Build(parseSorted(tb, srcs)...)
	blocks := 0
	for _, fn := range p.All {
		blocks += len(fn.Graph.Blocks)
	}
	return p, blocks
}

// TestCompileDispatchAllocs: compiling the bundled suite's dispatch
// allocates per program, not per block — the block features go into one
// reused scratch and every admit bitset is carved from one array — so a
// tree four times the size costs no more objects. Both trees read 204
// (at the parent, when every block had a feature map and a bitset of
// its own, 501 and 1,429: ~3 per block). The slack is for the two
// scratch lists, which grow with the widest block and the deepest call
// chain, not with the number of blocks.
func TestCompileDispatchAllocs(t *testing.T) {
	suite := bundledSuite(t)
	small, smallBlocks := dispatchTree(t, 2, 10)
	large, largeBlocks := dispatchTree(t, 4, 20)
	a := testing.AllocsPerRun(5, func() { CompileDispatch(small, suite) })
	b := testing.AllocsPerRun(5, func() { CompileDispatch(large, suite) })
	t.Logf("%d blocks: %.0f objects; %d blocks: %.0f objects (%.3f per extra block)",
		smallBlocks, a, largeBlocks, b, (b-a)/float64(largeBlocks-smallBlocks))
	if b > a+4 {
		t.Errorf("compiling %d blocks allocates %.0f objects, %d blocks %.0f: objects grow with blocks",
			largeBlocks, b, smallBlocks, a)
	}
}

// BenchmarkCompileDispatch compiles the bundled suite's dispatch over a
// MixedTree: the per-run cost every mc run pays once before its engines
// start.
func BenchmarkCompileDispatch(b *testing.B) {
	suite := bundledSuite(b)
	p, _ := dispatchTree(b, 4, 20)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		CompileDispatch(p, suite)
	}
}
