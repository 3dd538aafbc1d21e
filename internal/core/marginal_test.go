package core

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/checkers"
	"repro/internal/metal"
)

// marginalAllocs runs checker c over gen(small) and gen(large) — one
// fresh engine per run on a program and a dispatch built once, as every
// engine of an mc run finds them — and returns the heap objects each
// extra unit of n costs, with the last engine of each size for the
// caller to check the shape against. No run may report. A retiring
// engine must evict every function it entered.
func marginalAllocs(t *testing.T, c *metal.Checker, gen func(n int) string, small, large int, retire bool) (perUnit float64, lo, hi *Engine) {
	t.Helper()
	run := func(n int) (float64, *Engine) {
		p := buildProg(t, map[string]string{"m.c": gen(n)})
		cd := CompileDispatch(p, []*metal.Checker{c})
		var last *Engine
		allocs := testing.AllocsPerRun(5, func() {
			en := NewEngine(p, c, DefaultOptions())
			en.SetCompiled(cd, 0)
			if retire {
				en.SetRetire(nil)
			}
			if len(en.RunContext(context.Background()).Reports) != 0 {
				t.Fatal("the checker reported")
			}
			if retire && (en.liveFuncs != 0 || en.Evictions != int64(len(p.All))) {
				t.Fatalf("%d of %d functions evicted, %d live", en.Evictions, len(p.All), en.liveFuncs)
			}
			last = en
		})
		return allocs, last
	}
	a, lo := run(small)
	b, hi := run(large)
	return (b - a) / float64(large-small), lo, hi
}

// TestTraversalMarginalAllocs is the ownership rule of DESIGN §5 as a
// counter: memory whose lifetime is the DFS's, the function's or the
// instance's is not re-made per block, call, split, arm, retired unit,
// fired transition or exit partition. Each bound is the go1.24 reading
// + 5 %: (a) 0.111, (b) 0, (c) 1.661, (d) 0.433, (e) 0.067, (f) 0 and
// (g) 4.404; (d) reads 0.422 since a fingerprint keeps only the facts a
// path can still use. Nothing binds in (a)-(e), where the checker never fires;
// in (f) and (g) it does.
func TestTraversalMarginalAllocs(t *testing.T) {
	const small, large = 10, 100
	// (a)-(e) run the free checker over programs in which nothing can be
	// freed: kfree is only ever handed an int, so the checker is admitted
	// to one block (the root is not skipped) and never fires.
	free := mustChecker(t, checkers.Free)

	// (a) A block with nothing to say: n statements, one block each,
	// none admitted to the checker.
	blocks := func(n int) string {
		return "void kfree(void *p);\nvoid tick(void);\nint f(int n) {\n" +
			strings.Repeat("    tick();\n", n) + "    kfree(n);\n    return n;\n}\n"
	}
	perBlock, lo, hi := marginalAllocs(t, free, blocks, small, large, false)
	if got := hi.Stats.Blocks - lo.Stats.Blocks; got != large-small {
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
	perCall, lo, hi := marginalAllocs(t, free, calls, small, large, false)
	if got := hi.Stats.FuncCacheHits - lo.Stats.FuncCacheHits; got != large-small || hi.Stats.FuncFollows != 1 || hi.Stats.Blocks != lo.Stats.Blocks {
		t.Fatalf("(b) %d extra summary hits, %d follows, %d extra blocks; want %d, 1, 0",
			got, hi.Stats.FuncFollows, hi.Stats.Blocks-lo.Stats.Blocks, large-small)
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
	perIf, lo, hi := marginalAllocs(t, free, ifs, small, large, false)
	if hi.Stats.Paths != 2 || hi.Stats.PrunedPaths-lo.Stats.PrunedPaths != 2*(large-small) {
		t.Fatalf("(c) %d paths, %d extra pruned arms; want 2, %d", hi.Stats.Paths, hi.Stats.PrunedPaths-lo.Stats.PrunedPaths, 2*(large-small))
	}
	// Here every extra if is a new nesting level of the DFS, and a new
	// level in a fresh engine costs one frame plus one fact array: the
	// first path's split takes both (0.5 + 0.5 a split); the second
	// path's reuses the frame the first released but regrows its array,
	// since n == 0 is two facts to n != 0's one (0.5). The rest is the
	// slab chunks of (a): the if block's fpSeen holds both paths' keys in
	// the four-key slot its first one was carved with. No stack copy, no
	// context, no edge array.
	t.Logf("(c) %.3f objects per extra split", perIf/2)
	if perIf/2 > 1.75 {
		t.Errorf("(c) %.3f objects per extra split, want <= 1.75", perIf/2)
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
	perArm, lo, hi := marginalAllocs(t, free, arms, small, large, false)
	if hi.Stats.PrunedPaths != 0 || hi.Stats.Blocks-lo.Stats.Blocks < 2*(large-small) {
		t.Fatalf("(d) %d pruned arms, %d extra blocks; want 0, >= %d (each arm's block and the join after it)",
			hi.Stats.PrunedPaths, hi.Stats.Blocks-lo.Stats.Blocks, 2*(large-small))
	}
	// An arm reuses the frame and fact array its previous sibling
	// released. Its own fact set (n == i) is new, and the engine's table
	// appends it to the arena all sets share, so what remains is the
	// amortized growth of that table and of the slabs: 0.422.
	t.Logf("(d) %.3f objects per extra arm", perArm)
	if perArm > 0.455 {
		t.Errorf("(d) %.3f objects per extra arm, want <= 0.455", perArm)
	}

	// (e) A retired unit: n leaf functions, each a root and a unit of its
	// own, on one retiring engine.
	leaves := func(n int) string {
		var sb strings.Builder
		sb.WriteString("void kfree(void *p);\nvoid tick(void);\n")
		for i := 0; i < n; i++ {
			fmt.Fprintf(&sb, "int f%d(int n) {\n    if (n) tick();\n    kfree(n);\n    return n;\n}\n", i)
		}
		return sb.String()
	}
	perUnit, lo, hi := marginalAllocs(t, free, leaves, small, large, true)
	if hi.Stats.Analyses["f0"] != 1 || hi.Stats.Blocks-lo.Stats.Blocks < 2*(large-small) {
		t.Fatalf("(e) f0 analysed %d times, %d extra blocks; want 1, >= %d", hi.Stats.Analyses["f0"], hi.Stats.Blocks-lo.Stats.Blocks, 2*(large-small))
	}
	// A retired unit's funcInfo, block array and slab chunks go to the
	// engine's pool and the next unit's function is carved from them
	// (PR 41). What remains is the growth of Stats.Analyses, a map entry
	// per root.
	t.Logf("(e) %.3f objects per extra retired unit", perUnit)
	if perUnit > 0.070 {
		t.Errorf("(e) %.3f objects per extra retired unit, want <= 0.070", perUnit)
	}

	// (f) A fired transition whose actions render rule facts from a bound
	// hole: n calls hit(x) in one block, each firing rule(a), example(a)
	// and violation() with a bound to x.
	facts := mustChecker(t, `
sm facts;
decl any_expr a;

start:
    { hit(a) } ==> start, { rule(a); example(a); violation(); }
;
`)
	hits := func(n int) string {
		return "int hit(int x);\nint f(int x) {\n    return hit(x)" + strings.Repeat(" + hit(x)", n-1) + ";\n}\n"
	}
	perFire, lo, hi := marginalAllocs(t, facts, hits, small, large, false)
	if rc := hi.RuleStats["x"]; len(hi.RuleStats) != 1 || rc == nil || rc.Examples != large || rc.Violations != large {
		t.Fatalf("(f) rule stats %v, want only x, counted %d times each way", hi.RuleStats, large)
	}
	// The engine's action context is refilled, the facts are rendered
	// into its buffer and RuleStats is probed with the bytes (PR 45).
	t.Logf("(f) %.3f objects per extra fired transition", perFire)
	if perFire > 0 {
		t.Errorf("(f) %.3f objects per extra fired transition, want 0", perFire)
	}

	// (g) Exit partitions: n calls, each in a block of its own, to a
	// callee that may drop the lock it is handed. Held, the lock comes
	// back held or dropped — two partitions, a fork; dropped, it comes
	// back dropped — one. The dropped state the fork's first
	// continuation carries on meets the other path's at the next block,
	// whose cache stops it, so an extra call is three partitions, each
	// restoring one instance, and two followed calls the summary answers.
	flip := mustChecker(t, `
sm flip;
state decl any_pointer v;

start:
    { grab(v) } ==> v.held
;

v.held:
    { drop(v) } ==> v.dropped
;
`)
	returns := func(n int) string {
		var sb strings.Builder
		sb.WriteString("void grab(int *l);\nvoid drop(int *l);\nint flag;\n" +
			"void maybe(int *l) { if (flag) drop(l); }\nvoid f(int *l) {\n    grab(l);\n")
		for i := 0; i < n; i++ {
			fmt.Fprintf(&sb, "L%d: maybe(l);\n", i)
		}
		sb.WriteString("}\n")
		return sb.String()
	}
	perReturn, lo, hi := marginalAllocs(t, flip, returns, small, large, false)
	if hits, cached := hi.Stats.FuncCacheHits-lo.Stats.FuncCacheHits, hi.Stats.CacheHits-lo.Stats.CacheHits; hits != 2*(large-small) || cached != large-small || hi.Stats.FuncFollows != 2 {
		t.Fatalf("(g) %d extra summary hits, %d extra block-cache hits, %d follows; want %d, %d, 2",
			hits, cached, hi.Stats.FuncFollows, 2*(large-small), large-small)
	}
	// The partitions and their tuples are carved from the engine's
	// stacks and a forked continuation's block record is a copy on the
	// stack, so an extra call's 13.2 objects are: the three restored
	// instances; the two refined copies of the lock and the two refined
	// sets that hold them, one per followed call; the frame of the DFS
	// level the fork adds, with its instance array; and the new block's
	// summary edges (PR 45).
	t.Logf("(g) %.3f objects per extra exit partition", perReturn/3)
	if perReturn/3 > 4.62 {
		t.Errorf("(g) %.3f objects per extra exit partition, want <= 4.62", perReturn/3)
	}
}
