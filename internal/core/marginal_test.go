package core

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/checkers"
	"repro/internal/metal"
)

// marginalAllocs runs the free checker over gen(small) and gen(large) —
// one fresh engine per run on a program and a dispatch built once, as
// every engine of an mc run finds them — and returns the heap objects
// each extra unit of n costs, with the engines' counters for the
// caller to check the shape against. Nothing in the programs can be
// freed: kfree is only ever handed an int, so the checker is admitted
// to one block (the root is not skipped) and never fires.
func marginalAllocs(t *testing.T, gen func(n int) string, small, large int) (perUnit float64, lo, hi Stats) {
	t.Helper()
	free := mustChecker(t, checkers.Free)
	run := func(n int) (float64, Stats) {
		p := buildProg(t, map[string]string{"m.c": gen(n)})
		cd := CompileDispatch(p, []*metal.Checker{free})
		var stats Stats
		allocs := testing.AllocsPerRun(5, func() {
			en := NewEngine(p, free, DefaultOptions())
			en.SetCompiled(cd, 0)
			if len(en.Run().Reports) != 0 {
				t.Fatal("the checker fired")
			}
			stats = en.Stats
		})
		return allocs, stats
	}
	a, lo := run(small)
	b, hi := run(large)
	return (b - a) / float64(large-small), lo, hi
}

// TestTraversalMarginalAllocs is the ownership rule of DESIGN.md §5 as a
// counter: memory whose lifetime is the DFS's, the function's or the
// instance's is not re-made per block, per call or per split. Each bound
// is the measurement (go1.24) + 5 %; before the engine owned its stacks,
// slabs and match context (a)-(c) read 3.03, 3.00 and 11.76. Nothing
// binds in these programs (the checker never fires), so moving bindings
// into the match context's buffer left all three where they were:
// 0.111, 0 and 4.644 before and after. Recycling path frames and moving
// the witness log onto the engine's event stack took (c) from 4.644 to
// 2.178 and (d) from 6.478 to 1.500; deleting the witness log took them
// to 2.161 and 1.467.
func TestTraversalMarginalAllocs(t *testing.T) {
	const small, large = 10, 100

	// (a) A block with nothing to say: n statements, one block each,
	// none admitted to the checker.
	blocks := func(n int) string {
		return "void kfree(void *p);\nvoid tick(void);\nint f(int n) {\n" +
			strings.Repeat("    tick();\n", n) + "    kfree(n);\n    return n;\n}\n"
	}
	perBlock, lo, hi := marginalAllocs(t, blocks, small, large)
	if got := hi.Blocks - lo.Blocks; got != large-small {
		t.Fatalf("(a) %d extra blocks traversed, want %d", got, large-small)
	}
	// What remains, 10 objects over 90 blocks: a slab chunk per 32 first
	// edges (a block owns three singleton sets: its global-instance edge,
	// its transition edge and its suffix edge) and the backtrace stack
	// doubling twice past stackInitCap.
	t.Logf("(a) %.3f objects per extra traversed block", perBlock)
	if perBlock > 0.117 {
		t.Errorf("(a) %.3f objects per extra traversed block, want <= 0.117", perBlock)
	}

	// (b) A call boundary with nothing tracked: n calls in one block to
	// a callee the first of them summarises.
	calls := func(n int) string {
		return "void kfree(void *p);\nint leaf(int n) { return n; }\nint f(int n) {\n    kfree(n);\n    return leaf(n)" +
			strings.Repeat(" + leaf(n)", n-1) + ";\n}\n"
	}
	perCall, lo, hi := marginalAllocs(t, calls, small, large)
	if got := hi.FuncCacheHits - lo.FuncCacheHits; got != large-small || hi.FuncFollows != 1 || hi.Blocks != lo.Blocks {
		t.Fatalf("(b) %d extra summary hits, %d follows, %d extra blocks; want %d, 1, 0",
			got, hi.FuncFollows, hi.Blocks-lo.Blocks, large-small)
	}
	// Nothing remains: the refined state, the exit global states and the
	// one partition live on followCall's stack and in the engine's
	// buffers, and the restored state is the caller's own.
	t.Logf("(b) %.3f objects per extra followed call", perCall)
	if perCall > 0 {
		t.Errorf("(b) %.3f objects per extra followed call, want 0", perCall)
	}

	// (c) A fork: n ifs on one variable. The first splits the path in
	// two; at each later one a path takes the arm it already knows and
	// prunes the other, so an extra if is two forks, one per path.
	ifs := func(n int) string {
		return "void kfree(void *p);\nvoid tick(void);\nint f(int n) {\n" +
			strings.Repeat("    if (n) tick();\n", n) + "    kfree(n);\n    return n;\n}\n"
	}
	perIf, lo, hi := marginalAllocs(t, ifs, small, large)
	if hi.Paths != 2 || hi.PrunedPaths-lo.PrunedPaths != 2*(large-small) {
		t.Fatalf("(c) %d paths, %d extra pruned arms; want 2, %d", hi.Paths, hi.PrunedPaths-lo.PrunedPaths, 2*(large-small))
	}
	// Here every extra if is a new nesting level of the DFS, and a new
	// level in a fresh engine costs one frame plus one fact array: the
	// first path's split takes both (0.5 + 0.5 a split); the second
	// path's reuses the frame the first released but regrows its array,
	// since n == 0 is two facts to n != 0's one (0.5). The rest is the if
	// block's second fpSeen key (its first fingerprint came from the slab,
	// the other path's grows the set: 0.5 a split) and the slab chunks of
	// (a). No stack copy, no context, no edge array.
	t.Logf("(c) %.3f objects per extra split", perIf/2)
	if perIf/2 > 2.27 {
		t.Errorf("(c) %.3f objects per extra split, want <= 2.27", perIf/2)
	}

	// (d) Siblings: n case arms under one switch, each run after the
	// previous one has returned.
	arms := func(n int) string {
		var sb strings.Builder
		sb.WriteString("void kfree(void *p);\nvoid tick(void);\nint f(int n) {\n    switch (n) {\n")
		for i := 0; i < n; i++ {
			fmt.Fprintf(&sb, "    case %d: tick(); break;\n", i)
		}
		sb.WriteString("    }\n    kfree(n);\n    return n;\n}\n")
		return sb.String()
	}
	perArm, lo, hi := marginalAllocs(t, arms, small, large)
	if hi.PrunedPaths != 0 || hi.Blocks-lo.Blocks < 2*(large-small) {
		t.Fatalf("(d) %d pruned arms, %d extra blocks; want 0, >= %d (each arm's block and the join after it)",
			hi.PrunedPaths, hi.Blocks-lo.Blocks, 2*(large-small))
	}
	// An arm reuses the frame and fact array its previous sibling
	// released. What remains is the arm's own fact set (n == i),
	// which the function's table fingerprints once (one object an arm),
	// and the amortized growth of the table, the slabs and the list of
	// case values.
	t.Logf("(d) %.3f objects per extra arm", perArm)
	if perArm > 1.54 {
		t.Errorf("(d) %.3f objects per extra arm, want <= 1.54", perArm)
	}
}
