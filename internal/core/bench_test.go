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
		NewEngine(prog.Build(files...), c, DefaultOptions()).Run()
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
// — one compiled dispatch. governed runs it the
// way every governed caller does when nothing is cut: a cancellable
// context and budgets that never trip. It returns the report count so
// callers can check the run did something.
func runCallRich(files []*cc.File, suite []*metal.Checker, governed bool) int {
	p := prog.Build(files...)
	shared := NewShared()
	shared.Mark("net_wait", "blocking")
	opts, ctx := DefaultOptions(), context.Background()
	if governed {
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
		reports += len(en.RunContext(ctx).Reports)
	}
	return reports
}

// BenchmarkCallRichTraversal is BenchmarkBlockTraversal for the
// interprocedural half of the engine (`make profile` profiles it).
// governed/plain, read with -count N, is what governance costs when it
// never fires (DESIGN.md §9.6).
func BenchmarkCallRichTraversal(b *testing.B) {
	files, suite := suiteInputs(b)
	for _, name := range []string{"plain", "governed"} {
		governed := name == "governed"
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				runCallRich(files, suite, governed)
			}
		})
	}
}

// callRichAllocCeiling bounds the heap allocations of one runCallRich,
// about 5 % above the measured 2,358 (go1.24; governed 2,363). The count
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
// assignment and havoc events for the verdict tier.
// The governed run sits under the same ceiling (+4, its context): step
// counters and amortized polls allocate nothing.
const callRichAllocCeiling = 2_476

func TestCallRichTraversalAllocs(t *testing.T) {
	files, suite := suiteInputs(t)
	plain := runCallRich(files, suite, false)
	if plain == 0 {
		t.Fatal("the suite reported nothing on the call-rich tree")
	}
	if got := runCallRich(files, suite, true); got != plain {
		t.Errorf("governed run: %d reports, plain run has %d", got, plain)
	}
	for _, governed := range []bool{false, true} {
		got := testing.AllocsPerRun(5, func() { runCallRich(files, suite, governed) })
		t.Logf("governed=%v: %.0f allocations per suite run (ceiling %d)", governed, got, callRichAllocCeiling)
		if got > callRichAllocCeiling {
			t.Errorf("governed=%v: %.0f allocations per suite run, ceiling %d", governed, got, callRichAllocCeiling)
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
		in.trace = in.trace.push("f.c:10: locked -> unlocked at spin_unlock(p)")
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if cp := in.clone(); cp.trace != in.trace {
			b.Fatal("clone must share the trace")
		}
	}
}
