package core

import (
	"context"
	"runtime"
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

// callRichAllocCeiling bounds the heap allocations of one runCallRich:
// 1,352 plain, 1,355-1,357 governed, 1,362 retiring (go1.24),
// 1,417-1,424 under -race; 1,294, 1,297, 1,305 and 1,361-1,369 since
// prog.Build carves CFGs and call sites from slabs; 1,184, 1,187, 1,194
// and 1,231-1,241 since a function's tables are arrays, a report's
// trace is one string and a followed call clones only what it keeps;
// 1,158, 1,161, 1,168 and 1,205-1,215 since a pointer type is made once
// per element and a type environment carves its signatures; 1,157,
// 1,160, 1,167 since the dispatch has no program-wide skip table;
// 1,148, 1,151, 1,158 and 1,195-1,205 since an instance and a trace
// cell are elements of the engine's slabs.
// 5 % above plain is inside what -race reads, so the ceiling is the
// highest -race reading plus the 86 the previous ceiling kept over its
// own. The count repeats to the unit, so a
// regression in the per-path state, pattern dispatch, prog.Build or what
// the engine owns for the DFS fails here without a timer, and
// TestTraversalMarginalAllocs says which (DESIGN §10.4).
const callRichAllocCeiling = 1_327

// callRichByteCeiling bounds the bytes one runCallRich allocates: 205,120
// plain, 205,312 governed, 202,736 retiring (go1.24), 205,465-208,419
// under -race, and the ceiling is the plain reading plus 5 %: a change
// that grows what every engine or path keeps shows here without a timer.
// With the slabs' unclaimed tails it read 209,808, 210,230, 207,440 and
// up to 213,065 under -race; it reads 201,840, 202,048, 199,472 and up to
// 203,888 under -race since a function's tables are arrays, and the
// ceiling is that plain reading plus 5 %. It reads 203,888, 204,096,
// 201,520 and up to 205,936 under -race since Assemble copies the
// parameters it keeps and a type environment carves its signatures from
// slabs (the chunks' tails); 203,824, 204,032 and 201,456 since the
// dispatch has no program-wide skip table or union and a Program
// counts the bodies it has yet to build; 204,368, 204,576 and 202,000,
// up to 206,416 under -race, since instances and trace cells come from
// the engine's slabs (the chunks' tails; an Instance shrank from 176
// bytes to 144 to pay for them).
// The edge's own size is TestEdgeIsThreeIntegers'.
const callRichByteCeiling = 211_932

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
		run := func() { runCallRich(files, suite, mode) }
		got := testing.AllocsPerRun(5, run)
		t.Logf("%s: %.0f allocations per suite run (ceiling %d)", mode, got, callRichAllocCeiling)
		if got > callRichAllocCeiling {
			t.Errorf("%s: %.0f allocations per suite run, ceiling %d", mode, got, callRichAllocCeiling)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range 5 {
			run()
		}
		runtime.ReadMemStats(&after)
		bytes := (after.TotalAlloc - before.TotalAlloc) / 5
		t.Logf("%s: %d bytes per suite run (ceiling %d)", mode, bytes, callRichByteCeiling)
		if bytes > callRichByteCeiling {
			t.Errorf("%s: %d bytes per suite run, ceiling %d", mode, bytes, callRichByteCeiling)
		}
	}
}

// BenchmarkInstanceClone measures the per-clone cost of an instance
// with a shared cons-list trace. Cloning happens at every path split
// and call boundary for every active instance, so this is the engine's
// hottest instance site: a clone is the next element of the engine's
// slab, one chunk per few clones.
func BenchmarkInstanceClone(b *testing.B) {
	en := new(Engine)
	in := &Instance{v: 1, obj: 1, val: 3}
	for i := 0; i < 8; i++ {
		in.trace = en.push(in.trace, traceMoves, nil, "locked", "unlocked")
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if cp := en.clone(in); cp == in || cp.trace != in.trace {
			b.Fatal("a clone must be a new instance that shares the trace")
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
// tree four times the size costs no more objects. Both trees read 203
// (204 with the program-wide skip table; 501 and 1,429, ~3 per block,
// when every block had a feature map and a bitset of its own). The slack is for the two
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
