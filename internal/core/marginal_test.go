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
// fired transition or exit partition, and an instance or a summary
// table's array is a span of one of the engine's slabs, not an object
// of its own. Each bound is the go1.24 reading + 5 %: (a) 0.067, (b) 0
// and 0.289, (c) 1.600, (d) 0.378, (e) 0.067, (f) 0, (g) 1.037, (h)
// 0.711 and (i) 0.211, the same under -race; (b) with nothing tracked
// is held to 0. (d) reads 0.367 since a slab's first chunk holds two of
// its first request. Before the summary tables grew inside the slabs (a),
// (c), (d), (g), (h) and (i) read 0.111, 1.661, 0.422, 2.341, 1.744 and
// 3.178. Nothing binds in (a), (c)-(e) and (b) with nothing tracked,
// where the checker never fires; in (b) with live instances, (f), (g),
// (h) and (i) it does.
func TestTraversalMarginalAllocs(t *testing.T) {
	const small, large = 10, 100
	// (a), (c)-(e) and (b)'s first program run the free checker over
	// programs in which nothing can be freed: kfree is only ever handed an
	// int, so the checker is admitted to one block (the root is not
	// skipped) and never fires.
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
	// What remains, 6 objects over 90 blocks: the chunks of the
	// engine's edge slab, 85 edges each (a block owns three singleton
	// sets: its global-instance edge, its transition edge and its suffix
	// edge), and the backtrace stack doubling twice past stackInitCap.
	t.Logf("(a) %.3f objects per extra traversed block", perBlock)
	if perBlock > 0.070 {
		t.Errorf("(a) %.3f objects per extra traversed block, want <= 0.070", perBlock)
	}

	// (b) A call boundary: n calls in one block to a callee the first of
	// them summarises, first with nothing tracked, then with two live
	// instances: the caller holds its parameter p freed across the call
	// and hands the callee the global g, freed too.
	calls := func(live bool) func(n int) string {
		return func(n int) string {
			head := "void kfree(void *p);\nint leaf(int n) { return n; }\nint f(int n) {\n    kfree(n);\n"
			if live {
				head = "void kfree(void *p);\nint *g;\nint leaf(int n) { return n; }\nint f(int *p, int n) {\n    kfree(p);\n    kfree(g);\n"
			}
			return head + "    return leaf(n)" + strings.Repeat(" + leaf(n)", n-1) + ";\n}\n"
		}
	}
	for _, c := range []struct {
		name  string
		live  bool
		bound float64
	}{{"nothing tracked", false, 0}, {"two live instances", true, 0.30}} {
		perCall, lo, hi := marginalAllocs(t, free, calls(c.live), small, large, false)
		if got := hi.Stats.FuncCacheHits - lo.Stats.FuncCacheHits; got != large-small || hi.Stats.FuncFollows != 1 || hi.Stats.Blocks != lo.Stats.Blocks {
			t.Fatalf("(b) %s: %d extra summary hits, %d follows, %d extra blocks; want %d, 1, 0",
				c.name, got, hi.Stats.FuncFollows, hi.Stats.Blocks-lo.Stats.Blocks, large-small)
		}
		// Nothing tracked, nothing remains: the refined and held sets
		// live on the engine's stacks, the exit global states and the
		// one partition in its buffers, and the restored state is the
		// caller's own array. With live instances what remains is the
		// instances alone: the clone of g the callee is handed and the
		// instance its summary gives back, two elements of the engine's
		// slab, whose 1 KB chunk holds seven (2/7 = 0.286); the held p
		// is not cloned. It read 5.000 when every instance was cloned
		// and both sets grew from nil, 2.000 while each instance was an
		// object of its own.
		t.Logf("(b) %s: %.3f objects per extra followed call", c.name, perCall)
		if perCall > c.bound {
			t.Errorf("(b) %s: %.3f objects per extra followed call, want <= %g", c.name, perCall, c.bound)
		}
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
	// slab chunks of (a) and of fpSeen keys: the if block's fpSeen holds
	// both paths' keys in the four-key span its first one took. No stack
	// copy, no context, no edge array of its own.
	t.Logf("(c) %.3f objects per extra split", perIf/2)
	if perIf/2 > 1.68 {
		t.Errorf("(c) %.3f objects per extra split, want <= 1.68", perIf/2)
	}

	// (d) Siblings: n case arms under one switch, each run after the
	// previous one has returned; head is the function up to the switch.
	arms := func(head string) func(n int) string {
		return func(n int) string {
			var sb strings.Builder
			sb.WriteString("void kfree(void *p);\nvoid tick(void);\n" + head + "    switch (n) {\n")
			for i := 0; i < n; i++ {
				fmt.Fprintf(&sb, "    case %d: tick(); break;\n", i)
			}
			sb.WriteString("    }\n    kfree(n);\n    return n;\n}\n")
			return sb.String()
		}
	}
	perArm, lo, hi := marginalAllocs(t, free, arms("int f(int n) {\n"), small, large, false)
	if hi.Stats.PrunedPaths != 0 || hi.Stats.Blocks-lo.Stats.Blocks < 2*(large-small) {
		t.Fatalf("(d) %d pruned arms, %d extra blocks; want 0, >= %d (each arm's block and the join after it)",
			hi.Stats.PrunedPaths, hi.Stats.Blocks-lo.Stats.Blocks, 2*(large-small))
	}
	// An arm reuses the frame and fact array its previous sibling
	// released. Its own fact set (n == i) is new, and the engine's table
	// appends it to the arena all sets share, so what remains is the
	// amortized growth of that table and of the slabs: 0.367.
	t.Logf("(d) %.3f objects per extra arm", perArm)
	if perArm > 0.397 {
		t.Errorf("(d) %.3f objects per extra arm, want <= 0.397", perArm)
	}

	// (h) A split with two live instances: (d)'s arms after the function
	// freed its parameter p and the global g, so that every arm's split
	// copies both instances.
	liveArms := arms("int *g;\nint f(int *p, int n) {\n    kfree(p);\n    kfree(g);\n")
	perLiveArm, lo, hi := marginalAllocs(t, free, liveArms, small, large, false)
	if hi.Stats.PrunedPaths != 0 || hi.Stats.Blocks-lo.Stats.Blocks < 2*(large-small) {
		t.Fatalf("(h) %d pruned arms, %d extra blocks; want 0, >= %d", hi.Stats.PrunedPaths, hi.Stats.Blocks-lo.Stats.Blocks, 2*(large-small))
	}
	// The two copies are two elements of the engine's slab (2/7 =
	// 0.286 objects); the rest is (d)'s arm, 0.367, and the edge slab's
	// share of the arm block's sets, which hold an edge per instance. It
	// read 3.456 while each copy was an object of its own and 1.744 while
	// a set's second edge moved it to an array of its own (2.744 under
	// -race, which the bound then skipped).
	t.Logf("(h) %.3f objects per extra split with two live instances", perLiveArm)
	if perLiveArm > 0.75 {
		t.Errorf("(h) %.3f objects per extra split with two live instances, want <= 0.75", perLiveArm)
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
	// A retired unit's funcInfo, block array and table spans go to the
	// engine's pool and the next unit's function fills them. What
	// remains is the growth of Stats.Analyses, a map entry per root.
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
	// stack, so an extra call's 3.1 objects are: the frame of the DFS
	// level the fork adds, with its instance array; the slab chunks of
	// the three restored instances and of the two refined copies of the
	// lock, one per followed call, five elements at seven a chunk; and
	// the edge slab's share of the new block's summary edges. It read
	// 13.2 when each set grew from nil, 11.3 while each instance was an
	// object of its own and 7.0 while a set's second edge moved it to an
	// array of its own.
	t.Logf("(g) %.3f objects per extra exit partition", perReturn/3)
	if perReturn/3 > 1.09 {
		t.Errorf("(g) %.3f objects per extra exit partition, want <= 1.09", perReturn/3)
	}

	// (i) A block with two live instances: n statements, one block each,
	// after f grabbed both its parameters, so that every block's block
	// and suffix summaries hold an edge per lock (the suffix set a third,
	// the global-instance edge, which the rendering omits).
	held := func(n int) string {
		return "void grab(int *l);\nvoid tick(void);\nvoid f(int *l, int *m) {\n    grab(l);\n    grab(m);\n" +
			strings.Repeat("    tick();\n", n) + "}\n"
	}
	perHeldBlock, lo, hi := marginalAllocs(t, flip, held, small, large, false)
	if got := hi.Stats.Blocks - lo.Stats.Blocks; got != large-small {
		t.Fatalf("(i) %d extra blocks traversed, want %d", got, large-small)
	}
	last := hi.Prog.Lookup("f").Graph.Blocks
	for _, sum := range []string{hi.BlockSummaryString("f", last[len(last)-1]), hi.SuffixSummaryString("f", last[len(last)-1])} {
		if n := strings.Count(sum, "-->"); n != 2 {
			t.Fatalf("(i) the last block's summary %q holds %d edges, want 2", sum, n)
		}
	}
	// Each set's arrays are spans of the engine's edge slab, one edge,
	// then two, then four, so what remains is the slab's chunks, one to
	// about eight blocks, and the engine's stacks doubling as the path
	// deepens. It read
	// 3.178 while a set's second edge moved it to an array of its own:
	// one move for the transition set and two for the suffix set.
	t.Logf("(i) %.3f objects per extra traversed block with two live instances", perHeldBlock)
	if perHeldBlock > 0.22 {
		t.Errorf("(i) %.3f objects per extra traversed block with two live instances, want <= 0.22", perHeldBlock)
	}
}
