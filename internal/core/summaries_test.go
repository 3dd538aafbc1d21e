package core

import (
	"context"
	"crypto/sha256"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/prog"
	"repro/internal/workload"
)

// stackAdversaryDepth is the length of the adversary's callee chain. It
// is fixed, not derived from stackInitCap, so the committed digest
// survives a change of that constant; the test only insists that the
// chain still outgrows it.
const stackAdversaryDepth = 40

// stackAdversary is the program the engine-owned stacks (DESIGN.md §5)
// could get wrong: mid, one call below the root so that its parameters
// outlive its exit, frees p and switches three ways. The first arm
// carries p down a chain of callees, each a few blocks long, that is
// deeper than the stacks' initial capacity, so both arrays are regrown
// while the switch block's state is still waiting to fork again. The
// later arms then run on what the first left behind: each frees an
// object of its own, follows a call, and so brings a new tuple to the
// exit — its relax walks mid's whole backtrace instead of stopping at
// the first block that learns nothing.
func stackAdversary(depth int) map[string]string {
	var sb strings.Builder
	sb.WriteString("void kfree(void *p);\n")
	fmt.Fprintf(&sb, "int c%d(int *p) { int a; a = %d; if (a) a = a + 1; return a; }\n", depth, depth)
	for i := depth - 1; i >= 0; i-- {
		fmt.Fprintf(&sb, "int c%d(int *p) { int a; a = %d; if (a) a = a + 1; return c%d(p) + a; }\n", i, i, i+1)
	}
	fmt.Fprintf(&sb, `int mid(int *p, int *q, int *s, int n) {
    int r;
    kfree(p);
    switch (n) {
    case 0: r = c0(p); break;
    case 1: kfree(q); r = c%d(q); break;
    default: kfree(s); r = c%d(s); break;
    }
    return r;
}
int root(int *p, int *q, int *s, int n) { return mid(p, q, s, n) + *s; }
`, depth, depth-1)
	return map[string]string{"adversary.c": sb.String()}
}

// summariesDigest is the SHA-256 over SupergraphString of every
// function under every bundled checker for the three trees below. Report
// digests do not see block and suffix summaries; this does. A change
// that moves it changed what the engine computes, not who owns the
// memory, and moves it deliberately: when the callee index admitted
// "{ fn(args) } && ${ mc_is_call_to(fn, "name") }", three checkers
// stopped traversing roots that never call their names (PR 27).
const summariesDigest = "0f71f0df737a312183b10363089d9bc7bd9285f5235e1895ef8541a65dc9515a"

// digestTree is one program the digest runs the bundled suite over.
type digestTree struct {
	name string
	srcs map[string]string
}

func digestTrees(t *testing.T) []digestTree {
	t.Helper()
	if stackAdversaryDepth <= stackInitCap {
		t.Fatalf("the adversary's chain (%d) no longer outgrows stackInitCap (%d): deepen it and re-take the digest at a commit known good",
			stackAdversaryDepth, stackInitCap)
	}
	finding4, err := os.ReadFile("../../testdata/rootorder/finding4.c")
	if err != nil {
		t.Fatal(err)
	}
	return []digestTree{
		{"callrich", workload.CallRichTree()},
		{"finding4", map[string]string{"finding4.c": string(finding4)}},
		{"adversary", stackAdversary(stackAdversaryDepth)},
	}
}

// digestRun runs every bundled checker over the tree, the way an mc run
// does (one annotation store, one compiled dispatch), and hands each
// engine to visit after its run.
func digestRun(t *testing.T, tree digestTree, visit func(p *prog.Program, en *Engine)) {
	t.Helper()
	suite := bundledSuite(t)
	p := buildProg(t, tree.srcs)
	shared := NewShared()
	shared.Mark("net_wait", "blocking")
	cd := CompileDispatch(p, suite)
	for i, c := range suite {
		en := NewEngineShared(p, c, DefaultOptions(), shared)
		en.SetCompiled(cd, i)
		en.RunContext(context.Background())
		visit(p, en)
	}
}

func TestSummariesUnchanged(t *testing.T) {
	h := sha256.New()
	for _, tree := range digestTrees(t) {
		edges := 0
		digestRun(t, tree, func(p *prog.Program, en *Engine) {
			for _, fn := range p.All {
				s := en.SupergraphString(fn.Name)
				edges += strings.Count(s, "-->")
				fmt.Fprintf(h, "%s/%s/%s\n%s", tree.name, en.Checker.Name, fn.Name, s)
			}
		})
		if edges == 0 {
			t.Fatalf("%s: no summary edge rendered; the digest would be vacuous", tree.name)
		}
	}
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != summariesDigest {
		t.Errorf("summaries digest %s, want %s", got, summariesDigest)
	}
}
