package prog

import (
	"runtime"
	"sort"
	"testing"

	"repro/internal/cc"
	"repro/internal/workload"
)

// frontEndTree is the front end's gate input: leaf-L's shape (DESIGN.md
// §10.4) at 8 files, 200 functions.
func frontEndTree() (map[string]string, []string) {
	srcs, _ := workload.MixedTree(8, 25, 2002)
	names := make([]string, 0, len(srcs))
	for n := range srcs {
		names = append(names, n)
	}
	sort.Strings(names)
	return srcs, names
}

// frontEnd is the first half of every analysis: parse each file, then
// build the program (CFGs, types, call graph, units).
func frontEnd(tb testing.TB, srcs map[string]string, names []string) *Program {
	files := make([]*cc.File, len(names))
	for i, n := range names {
		f, err := cc.ParseFile(n, srcs[n])
		if err != nil {
			tb.Fatal(err)
		}
		files[i] = f
	}
	return Build(files...)
}

// frontEndAllocCeiling bounds the objects of one frontEnd over
// frontEndTree, about 5 % above the measured 7,479 (go1.24, PR 37). The
// count repeats to the unit, so a token, scope, list or CFG block that
// starts allocating on its own fails here (DESIGN §10.4).
const frontEndAllocCeiling = 7_853

// frontEndRetainedCeiling bounds the heap a built Program keeps alive
// (after runtime.GC, sources excluded) at the 930,376 bytes it retained
// on this tree before PR 37 (go1.24); it retains 849,112 now.
// A builder slab, a grown list's spare capacity or a comment string
// kept with the Program shows here first.
const frontEndRetainedCeiling = 930_376

func TestFrontEndAllocs(t *testing.T) {
	srcs, names := frontEndTree()
	got := testing.AllocsPerRun(5, func() { frontEnd(t, srcs, names) })
	t.Logf("%.0f allocations per parse + Build (ceiling %d)", got, frontEndAllocCeiling)
	if got > frontEndAllocCeiling {
		t.Errorf("%.0f allocations per parse + Build, ceiling %d", got, frontEndAllocCeiling)
	}

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	p := frontEnd(t, srcs, names)
	runtime.GC()
	runtime.ReadMemStats(&after)
	retained := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	runtime.KeepAlive(p)
	t.Logf("a built Program retains %d bytes (ceiling %d)", retained, frontEndRetainedCeiling)
	if retained > frontEndRetainedCeiling {
		t.Errorf("a built Program retains %d bytes, ceiling %d", retained, frontEndRetainedCeiling)
	}
}

// BenchmarkFrontEnd is parse + Build over frontEndTree (`make
// bench-micro`; `make profile` writes pprof/frontend.{cpu,mem}).
func BenchmarkFrontEnd(b *testing.B) {
	srcs, names := frontEndTree()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		frontEnd(b, srcs, names)
	}
}
