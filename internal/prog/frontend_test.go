package prog

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
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
// frontEndTree, about 5 % above the measured 2,552 (go1.24; 3,619 while
// every function kept a type map and two locals sets, and its call-graph
// lists grew one edge at a time): each of the eight files is parsed by a
// ParseFile call with an arena of its own. The count repeats to the
// unit, so a token, scope, node, list, CFG array or per-function table
// that starts allocating on its own fails here (DESIGN §10.4).
const frontEndAllocCeiling = 2_680

// frontEndRetainedCeiling bounds the heap a built Program keeps alive
// (after runtime.GC, sources excluded) about 5 % above the 729,728 bytes
// it retains on this tree (go1.24; 729,840 under -race). It retained
// 930,376 before the front end's allocation work, 794,520 before the
// arenas and 862,232 with them, while every function kept a type map
// and two locals sets: the rest is the unclaimed tails of the last
// chunk of each slab, one set per file parsed alone. A larger chunk, a
// builder slab, a grown list's spare capacity, a map per function or a
// comment string kept with the Program shows here first.
const frontEndRetainedCeiling = 766_300

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

// frontEndMarginal parses and builds gen(small) and gen(large) and
// returns the heap objects each extra unit of n costs.
func frontEndMarginal(t *testing.T, gen func(n int) string, small, large int) float64 {
	t.Helper()
	run := func(n int) float64 {
		srcs := map[string]string{"m.c": gen(n)}
		return testing.AllocsPerRun(5, func() { frontEnd(t, srcs, []string{"m.c"}) })
	}
	a := run(small)
	b := run(large)
	return (b - a) / float64(large-small)
}

// TestFrontEndMarginalAllocs is the arena rule of DESIGN §10.4 as a
// counter: a body's nodes, lists and CFG arrays come from slabs, so one
// more statement or one more function body costs a share of a chunk,
// not an object per node. Each bound is the go1.24 reading + 5 %: (a)
// 0.661 objects per extra statement (12.133 before the arenas), (b)
// 9.778 per extra function (40.167; 17.622 while it kept a type map and
// two locals sets), nearly all of them its declaration's (parameters,
// types, signature), which outlives the body. (a) reads 0.683 since an
// expression node holds its type: a chunk holds fewer nodes.
func TestFrontEndMarginalAllocs(t *testing.T) {
	const small, large = 20, 200
	// (a) One body of n statements, in pairs: a call with an arithmetic
	// argument, and a guarded assignment. A pair is sixteen nodes.
	stmts := func(n int) string {
		return "void tick(int v);\nint f(int x) {\n" +
			strings.Repeat("    tick(x + 1);\n    if (x > 3) x = x - 2;\n", n/2) + "    return x;\n}\n"
	}
	perStmt := frontEndMarginal(t, stmts, small, large)
	t.Logf("(a) %.3f objects per extra statement", perStmt)
	if perStmt > 0.70 {
		t.Errorf("(a) %.3f objects per extra statement, want <= 0.70", perStmt)
	}

	// (b) n functions, each a parameter, a local and a call to the
	// previous one.
	funcs := func(n int) string {
		var sb strings.Builder
		sb.WriteString("int f0(int x) { return x; }\n")
		for i := 1; i < n; i++ {
			fmt.Fprintf(&sb, "int f%d(int x) { int y = x * 2; return f%d(y) + 1; }\n", i, i-1)
		}
		return sb.String()
	}
	perFunc := frontEndMarginal(t, funcs, small, large)
	t.Logf("(b) %.3f objects per extra function", perFunc)
	if perFunc > 10.3 {
		t.Errorf("(b) %.3f objects per extra function, want <= 10.3", perFunc)
	}
}
