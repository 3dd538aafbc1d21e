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

// BenchmarkInstanceClone measures the per-clone cost of an instance
// with a shared cons-list trace. Cloning happens at every path split
// and call boundary for every active instance, so this is the engine's
// hottest allocation site.
func BenchmarkInstanceClone(b *testing.B) {
	in := &Instance{Var: "v", Obj: "p", Val: "locked"}
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
