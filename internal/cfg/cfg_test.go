package cfg

import (
	"slices"
	"testing"

	"repro/internal/cc"
)

func buildFor(t *testing.T, src, fn string) *Graph {
	t.Helper()
	f, err := cc.ParseFile("t.c", src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	for _, fd := range f.Funcs() {
		if fd.Name == fn {
			g := Build(fd)
			for _, fault := range forkFaults(g) {
				t.Error(fault)
			}
			return g
		}
	}
	t.Fatalf("function %s not found", fn)
	return nil
}

// reachesExit reports whether exit is reachable from entry.
func reachesExit(g *Graph) bool {
	seen := map[*Block]bool{}
	var visit func(*Block) bool
	visit = func(b *Block) bool {
		if b == g.Exit {
			return true
		}
		if seen[b] {
			return false
		}
		seen[b] = true
		for _, e := range b.Succs {
			if visit(e.To) {
				return true
			}
		}
		return false
	}
	return visit(g.Entry)
}

func edgeKinds(b *Block) map[EdgeKind]int {
	m := map[EdgeKind]int{}
	for _, e := range b.Succs {
		m[e.Kind]++
	}
	return m
}

func TestStraightLine(t *testing.T) {
	g := buildFor(t, `
int f(int a) {
    int b;
    b = a + 1;
    b = b * 2;
    return b;
}`, "f")
	if !reachesExit(g) {
		t.Fatal("exit unreachable")
	}
	// Entry, three statement blocks, exit.
	if len(g.Blocks) != 5 {
		t.Errorf("blocks = %d, want 5\n%s", len(g.Blocks), g)
	}
}

func TestIfElse(t *testing.T) {
	g := buildFor(t, `
int f(int x) {
    int r;
    if (x > 0)
        r = 1;
    else
        r = 2;
    return r;
}`, "f")
	var condBlk *Block
	for _, b := range g.Blocks {
		if b.Cond != nil {
			condBlk = b
		}
	}
	if condBlk == nil {
		t.Fatal("no conditional block")
	}
	k := edgeKinds(condBlk)
	if k[EdgeTrue] != 1 || k[EdgeFalse] != 1 {
		t.Errorf("cond block edges = %v", k)
	}
	if cc.ExprString(condBlk.Cond) != "x > 0" {
		t.Errorf("cond = %s", cc.ExprString(condBlk.Cond))
	}
}

func TestIfNoElse(t *testing.T) {
	g := buildFor(t, `
void g(void);
int f(int x) {
    if (x)
        g();
    return 0;
}`, "f")
	var condBlk *Block
	for _, b := range g.Blocks {
		if b.Cond != nil {
			condBlk = b
		}
	}
	k := edgeKinds(condBlk)
	if k[EdgeTrue] != 1 || k[EdgeFalse] != 1 {
		t.Errorf("edges = %v", k)
	}
}

func TestWhileLoop(t *testing.T) {
	g := buildFor(t, `
int f(int n) {
    int i = 0;
    while (i < n) {
        i++;
    }
    return i;
}`, "f")
	var head *Block
	for _, b := range g.Blocks {
		if b.Cond != nil {
			head = b
		}
	}
	if head == nil {
		t.Fatal("no loop head")
	}
	// The body must loop back to the head.
	var body *Block
	for _, e := range head.Succs {
		if e.Kind == EdgeTrue {
			body = e.To
		}
	}
	if body == nil {
		t.Fatal("no body edge")
	}
	loops := false
	for _, e := range body.Succs {
		if e.To == head {
			loops = true
		}
	}
	if !loops {
		t.Errorf("body does not loop back:\n%s", g)
	}
}

func TestForLoopWithBreakContinue(t *testing.T) {
	g := buildFor(t, `
int f(int n) {
    int i, s = 0;
    for (i = 0; i < n; i++) {
        if (i == 3)
            continue;
        if (i == 7)
            break;
        s += i;
    }
    return s;
}`, "f")
	if !reachesExit(g) {
		t.Fatal("exit unreachable")
	}
	// There must be exactly one block whose Cond is "i < n".
	count := 0
	for _, b := range g.Blocks {
		if b.Cond != nil && cc.ExprString(b.Cond) == "i < n" {
			count++
		}
	}
	if count != 1 {
		t.Errorf("loop heads = %d", count)
	}
}

func TestDoWhile(t *testing.T) {
	g := buildFor(t, `
int f(int n) {
    do {
        n--;
    } while (n > 0);
    return n;
}`, "f")
	var cond *Block
	for _, b := range g.Blocks {
		if b.Cond != nil {
			cond = b
		}
	}
	if cond == nil {
		t.Fatal("no cond block")
	}
	k := edgeKinds(cond)
	if k[EdgeTrue] != 1 || k[EdgeFalse] != 1 {
		t.Errorf("edges = %v", k)
	}
}

func TestSwitchEdges(t *testing.T) {
	g := buildFor(t, `
int f(int x) {
    int r = 0;
    switch (x) {
    case 1:
        r = 10;
        break;
    case 2:
        r = 20;
        // fallthrough
    case 3:
        r = 30;
        break;
    default:
        r = -1;
    }
    return r;
}`, "f")
	var head *Block
	for _, b := range g.Blocks {
		if b.Switch != nil {
			head = b
		}
	}
	if head == nil {
		t.Fatal("no switch head")
	}
	k := edgeKinds(head)
	if k[EdgeCase] != 3 || k[EdgeDefault] != 1 {
		t.Errorf("switch edges = %v", k)
	}
	// Case values evaluated.
	vals := map[int64]bool{}
	for _, e := range head.Succs {
		if e.Kind == EdgeCase && e.CaseConst {
			vals[e.CaseVal] = true
		}
	}
	if !vals[1] || !vals[2] || !vals[3] {
		t.Errorf("case vals = %v", vals)
	}
}

func TestSwitchFallthrough(t *testing.T) {
	g := buildFor(t, `
int f(int x) {
    int r = 0;
    switch (x) {
    case 1:
        r = 1;
    case 2:
        r = 2;
        break;
    }
    return r;
}`, "f")
	// Find case 1's block; it must flow into case 2's block.
	var c1, c2 *Block
	for _, b := range g.Blocks {
		switch b.Comment() {
		case "case 1:":
			c1 = b
		case "case 2:":
			c2 = b
		}
	}
	if c1 == nil || c2 == nil {
		t.Fatalf("case blocks missing:\n%s", g)
	}
	// c1's body statement block (or c1 itself) must reach c2 without
	// going through the switch head.
	found := false
	seen := map[*Block]bool{}
	var visit func(b *Block)
	visit = func(b *Block) {
		if seen[b] || b.Switch != nil {
			return
		}
		seen[b] = true
		if b == c2 {
			found = true
			return
		}
		for _, e := range b.Succs {
			visit(e.To)
		}
	}
	visit(c1)
	if !found {
		t.Errorf("no fallthrough path from case 1 to case 2:\n%s", g)
	}
}

func TestSwitchNoDefaultHasEscape(t *testing.T) {
	g := buildFor(t, `
int f(int x) {
    switch (x) {
    case 1:
        return 1;
    }
    return 0;
}`, "f")
	var head *Block
	for _, b := range g.Blocks {
		if b.Switch != nil {
			head = b
		}
	}
	if edgeKinds(head)[EdgeDefault] != 1 {
		t.Errorf("switch without default needs a default escape edge:\n%s", g)
	}
}

func TestGotoAndLabel(t *testing.T) {
	g := buildFor(t, `
int f(int x) {
    if (x < 0) goto out;
    x = x * 2;
out:
    return x;
}`, "f")
	if !reachesExit(g) {
		t.Fatal("exit unreachable")
	}
	var labelBlk *Block
	for _, b := range g.Blocks {
		if b.Label == "out" {
			labelBlk = b
		}
	}
	if labelBlk == nil {
		t.Fatalf("label block missing:\n%s", g)
	}
	if len(labelBlk.Preds) < 2 {
		t.Errorf("label block should have >=2 preds (goto + fallthrough), got %d", len(labelBlk.Preds))
	}
}

func TestGotoBackward(t *testing.T) {
	g := buildFor(t, `
int f(int x) {
again:
    x--;
    if (x > 0) goto again;
    return x;
}`, "f")
	if !reachesExit(g) {
		t.Fatal("exit unreachable")
	}
}

func TestDeadCodeAfterReturn(t *testing.T) {
	g := buildFor(t, `
int f(void) {
    return 1;
    return 2;
}`, "f")
	// The second return is unreachable and pruned.
	for _, b := range g.Blocks {
		if b.Comment() == "return 2;" {
			t.Errorf("dead block not pruned:\n%s", g)
		}
	}
}

func TestDeclInitDesugared(t *testing.T) {
	g := buildFor(t, `
int f(int *p) {
    int *q = p;
    return *q;
}`, "f")
	found := false
	for _, b := range g.Blocks {
		for _, e := range b.Exprs {
			if a, ok := e.(*cc.AssignExpr); ok && cc.ExprString(a) == "q = p" {
				found = true
			}
		}
	}
	if !found {
		t.Errorf("decl init not desugared to assignment:\n%s", g)
	}
	if !g.Locals.Has("q") || !g.Locals.Has("p") {
		t.Errorf("locals = %v", g.Locals)
	}
}

func TestLocalsCollected(t *testing.T) {
	g := buildFor(t, `
int glob;
int f(int a, char *b) {
    int c;
    for (int d = 0; d < a; d++) {
        double e;
        int a;
    }
    { int c; }
    return 0;
}`, "f")
	// One entry a name, sorted; a parameter stays one when a block
	// redeclares it.
	want := Locals{{"a", true}, {"b", true}, {"c", false}, {"d", false}, {"e", false}}
	if !slices.Equal(g.Locals, want) {
		t.Errorf("locals = %v, want %v", g.Locals, want)
	}
	for _, l := range want {
		if !g.Locals.Has(l.Name) || g.Locals.HasNonParam(l.Name) == l.Param {
			t.Errorf("%q: Has %v, HasNonParam %v", l.Name, g.Locals.Has(l.Name), g.Locals.HasNonParam(l.Name))
		}
	}
	if g.Locals.Has("glob") || g.Locals.HasNonParam("glob") {
		t.Error("global recorded as local")
	}
}

func TestCallsIn(t *testing.T) {
	g := buildFor(t, `
void a(void); int b(int);
int f(int x) {
    a();
    return b(b(x));
}`, "f")
	total := 0
	for _, blk := range g.Blocks {
		total += len(CallsIn(blk))
	}
	if total != 3 {
		t.Errorf("calls = %d, want 3", total)
	}
}

func TestFig2ContrivedCFG(t *testing.T) {
	g := buildFor(t, `
void kfree(void *p);
int contrived(int *p, int *w, int x) {
    int *q;
    if(x)
    {
        kfree(w);
        q = p;
        p = 0;
    }
    if(!x)
        return *w;
    return *q;
}`, "contrived")
	if !reachesExit(g) {
		t.Fatal("exit unreachable")
	}
	// Two conditional blocks (if(x) and if(!x)); four simple paths
	// before pruning.
	conds := 0
	for _, b := range g.Blocks {
		if b.Cond != nil {
			conds++
		}
	}
	if conds != 2 {
		t.Errorf("cond blocks = %d, want 2\n%s", conds, g)
	}
	// The exit block must have two return predecessors.
	if len(g.Exit.Preds) != 2 {
		t.Errorf("exit preds = %d, want 2", len(g.Exit.Preds))
	}
}

func TestInfiniteLoopKeepsExitBlock(t *testing.T) {
	g := buildFor(t, `
void spin(void) {
    for (;;) {
    }
}`, "spin")
	if g.Exit == nil {
		t.Fatal("exit missing")
	}
	// Exit is unreachable but retained.
	found := false
	for _, b := range g.Blocks {
		if b == g.Exit {
			found = true
		}
	}
	if !found {
		t.Error("exit block pruned")
	}
}
