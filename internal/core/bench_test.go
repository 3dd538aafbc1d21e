package core

import (
	"sort"
	"testing"

	"repro/internal/cc"
	"repro/internal/checkers"
	"repro/internal/metal"
	"repro/internal/prog"
	"repro/internal/workload"
)

// benchOptions returns the default configuration and the hot-path
// ablation baseline (all four DESIGN.md §10 optimizations off).
func benchOptions() (optimized, baseline Options) {
	optimized = DefaultOptions()
	baseline = DefaultOptions()
	baseline.MatchMemo = false
	baseline.BlockFilter = false
	baseline.TupleIntern = false
	baseline.LeanAlloc = false
	return optimized, baseline
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
	names := make([]string, 0, len(srcs))
	for n := range srcs {
		names = append(names, n)
	}
	sort.Strings(names)
	files := make([]*cc.File, len(names))
	for i, n := range names {
		f, err := cc.ParseFile(n, srcs[n])
		if err != nil {
			b.Fatal(err)
		}
		files[i] = f
	}
	return files, c
}

// BenchmarkBlockTraversal runs a full engine traversal over a seeded
// workload with one bundled checker, optimized vs the hot-path
// ablation baseline. The two must report identically; the benchmark
// tracks how much the §10 machinery saves per analysis. Each iteration
// rebuilds the Program from the parsed files so every engine starts
// cold without re-paying parse time (Programs no longer retain their
// files).
func BenchmarkBlockTraversal(b *testing.B) {
	files, c := benchInputs(b)
	optimized, baseline := benchOptions()
	for _, cfg := range []struct {
		name string
		opts Options
	}{{"optimized", optimized}, {"baseline", baseline}} {
		b.Run(cfg.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				NewEngine(prog.Build(files...), c, cfg.opts).Run()
			}
		})
	}
}

// BenchmarkImportSummaries loads a whole program's summaries into a
// fresh engine one function per call — the shape of the spill reload
// path (maybeReload) and of the cached path's lazy inspection. The
// FuncID index is built once per Program, so the cost per call must not
// grow with program size.
func BenchmarkImportSummaries(b *testing.B) {
	files, c := benchInputs(b)
	p := prog.Build(files...)
	en := NewEngine(p, c, DefaultOptions())
	en.Run()
	sds := make([]*SummaryData, len(p.All))
	for i, fn := range p.All {
		sds[i] = en.ExportSummaries([]*prog.Function{fn})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		me := NewEngine(p, c, DefaultOptions())
		for _, sd := range sds {
			me.ImportSummaries(sd)
		}
	}
}

// BenchmarkInstanceClone measures the per-clone cost of the shared
// cons-list trace against the ablation's deep copy. Cloning happens at
// every path split and call boundary for every active instance, so
// this is the engine's hottest allocation site.
func BenchmarkInstanceClone(b *testing.B) {
	mk := func(copyTrace bool) *Instance {
		in := &Instance{Var: "v", Obj: "p", Val: "locked", copyTrace: copyTrace}
		for i := 0; i < 8; i++ {
			in.trace = in.trace.push("f.c:10: locked -> unlocked at spin_unlock(p)")
		}
		return in
	}
	b.Run("lean", func(b *testing.B) {
		in := mk(false)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if cp := in.clone(); cp.trace != in.trace {
				b.Fatal("lean clone must share the trace")
			}
		}
	})
	b.Run("deep-copy", func(b *testing.B) {
		in := mk(true)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if cp := in.clone(); cp.trace == in.trace {
				b.Fatal("ablation clone must copy the trace")
			}
		}
	})
}
