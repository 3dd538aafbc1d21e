package core

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/cc"
	"repro/internal/metal"
	"repro/internal/pattern"
)

// threeState transitions v through distinct non-stop states on the two
// sides of a branch inside a callee, forcing the caller to continue in
// two disjoint exit partitions (§6.3 step 5).
const threeState = `
sm three_state;
state decl any_pointer v;

start:
    { begin(v) } ==> v.a
;

v.a:
    { go_b(v) } ==> v.b
  | { go_c(v) } ==> v.c
;

v.b:
    { use(v) } ==> v.b, { err("use in state b of %s", mc_identifier(v)); }
;

v.c:
    { use(v) } ==> v.c, { err("use in state c of %s", mc_identifier(v)); }
;
`

func TestDisjointExitPartitions(t *testing.T) {
	src := `
void begin(int *p); void go_b(int *p); void go_c(int *p); void use(int *p);
void split(int *p, int c) {
    if (c)
        go_b(p);
    else
        go_c(p);
}
void entry(int *p, int c) {
    begin(p);
    split(p, c);
    use(p);
}`
	_, rs := runChecker(t, threeState, map[string]string{"s.c": src}, DefaultOptions())
	var sawB, sawC bool
	for _, r := range rs.Reports {
		if strings.Contains(r.Msg, "state b") {
			sawB = true
		}
		if strings.Contains(r.Msg, "state c") {
			sawC = true
		}
	}
	if !sawB || !sawC {
		t.Errorf("caller must continue in both exit partitions; got %v", rs.Reports)
	}
}

func TestCallInCondition(t *testing.T) {
	// A call appearing inside a branch condition is still followed.
	src := `
void kfree(void *p);
int check(int *c) {
    return *c;
}
int entry(int *p) {
    kfree(p);
    if (check(p))
        return 1;
    return 0;
}`
	_, rs := runChecker(t, freeChecker, map[string]string{"c.c": src}, DefaultOptions())
	if rs.Len() != 1 || !hasReportAt(rs, 4, "after free") {
		t.Errorf("call in condition: got %v", rs.Reports)
	}
}

func TestNestedCallArguments(t *testing.T) {
	// g(f(p)): f's argument is visited, f followed, then g.
	src := `
void kfree(void *p);
int inner(int *i) { return *i; }
int outer(int x) { return x; }
int entry(int *p) {
    kfree(p);
    return outer(inner(p));
}`
	_, rs := runChecker(t, freeChecker, map[string]string{"n.c": src}, DefaultOptions())
	if rs.Len() != 1 || !hasReportAt(rs, 3, "after free") {
		t.Errorf("nested call: got %v", rs.Reports)
	}
}

func TestIndirectCallSkipped(t *testing.T) {
	src := `
void kfree(void *p);
int entry(int *p, void (*fp)(int *)) {
    kfree(p);
    fp(p);
    return 0;
}`
	// Must not crash or report; indirect calls are silently skipped
	// (§6) — p's state survives the unknown call (unsound, §7).
	_, rs := runChecker(t, freeChecker, map[string]string{"i.c": src}, DefaultOptions())
	if rs.Len() != 0 {
		t.Errorf("indirect call: got %v", rs.Reports)
	}
}

func TestCompoundAssignKills(t *testing.T) {
	// p += 1 redefines p without copying state.
	src := `
void kfree(void *p);
int f(int *p) {
    kfree(p);
    p += 1;
    return *p;
}`
	_, rs := runChecker(t, freeChecker, map[string]string{"k.c": src}, DefaultOptions())
	if rs.Len() != 0 {
		t.Errorf("compound assignment must kill: %v", rs.Reports)
	}
}

func TestIncrementKills(t *testing.T) {
	src := `
void kfree(void *p);
int f(int *p) {
    kfree(p);
    p++;
    return *p;
}`
	_, rs := runChecker(t, freeChecker, map[string]string{"k.c": src}, DefaultOptions())
	if rs.Len() != 0 {
		t.Errorf("p++ must kill p's state: %v", rs.Reports)
	}
}

func TestCommaExprPoints(t *testing.T) {
	src := `
void kfree(void *p);
int f(int *p, int x) {
    return (kfree(p), x ? *p : 0);
}`
	_, rs := runChecker(t, freeChecker, map[string]string{"c.c": src}, DefaultOptions())
	if rs.Len() != 1 {
		t.Errorf("comma-expression sequencing: got %v", rs.Reports)
	}
}

func TestSwitchStatePerCase(t *testing.T) {
	// State splits per case arm; only the freeing arm reports.
	src := `
void kfree(void *p);
int f(int *p, int mode) {
    switch (mode) {
    case 0:
        kfree(p);
        return *p;
    case 1:
        return *p;
    default:
        return 0;
    }
}`
	_, rs := runChecker(t, freeChecker, map[string]string{"s.c": src}, DefaultOptions())
	if rs.Len() != 1 || !hasReportAt(rs, 7, "after free") {
		t.Errorf("switch arms must not share state: %v", rs.Reports)
	}
}

func TestSwitchFallthroughState(t *testing.T) {
	// Fallthrough carries the freed state into the next arm.
	src := `
void kfree(void *p);
int f(int *p, int mode) {
    int r = 0;
    switch (mode) {
    case 0:
        kfree(p);
    case 1:
        r = *p;
        break;
    }
    return r;
}`
	_, rs := runChecker(t, freeChecker, map[string]string{"s.c": src}, DefaultOptions())
	if rs.Len() != 1 || !hasReportAt(rs, 9, "after free") {
		t.Errorf("fallthrough state lost: %v", rs.Reports)
	}
}

func TestSwitchFPPPrunesCases(t *testing.T) {
	// When the tag is a known constant, infeasible case arms are
	// pruned (the congruence classes contradict).
	src := `
void kfree(void *p);
int f(int *p) {
    int mode = 1;
    switch (mode) {
    case 0:
        kfree(p);
        return *p;
    case 1:
        return 0;
    }
    return 0;
}`
	_, rs := runChecker(t, freeChecker, map[string]string{"s.c": src}, DefaultOptions())
	if rs.Len() != 0 {
		t.Errorf("constant switch should prune case 0: %v", rs.Reports)
	}
}

func TestWhileLoopStateConverges(t *testing.T) {
	// Freed state created inside a loop must not cause divergence, and
	// the use after the loop is found.
	src := `
void kfree(void *p);
int f(int **a, int n) {
    int i;
    int *last = 0;
    for (i = 0; i < n; i++) {
        last = a[i];
        kfree(last);
    }
    return *last;
}`
	en, rs := runChecker(t, freeChecker, map[string]string{"l.c": src}, DefaultOptions())
	if rs.Len() != 1 {
		t.Errorf("loop-carried freed state: %v", rs.Reports)
	}
	if en.Stats.Blocks > 200 {
		t.Errorf("loop did not converge: %d blocks", en.Stats.Blocks)
	}
}

func TestGotoPathState(t *testing.T) {
	src := `
void kfree(void *p);
int f(int *p, int c) {
    if (c)
        goto cleanup;
    return 0;
cleanup:
    kfree(p);
    return *p;
}`
	_, rs := runChecker(t, freeChecker, map[string]string{"g.c": src}, DefaultOptions())
	if rs.Len() != 1 || !hasReportAt(rs, 9, "after free") {
		t.Errorf("goto path: %v", rs.Reports)
	}
}

func TestDoWhileState(t *testing.T) {
	src := `
void kfree(void *p);
int f(int *p, int n) {
    do {
        n--;
    } while (n > 0);
    kfree(p);
    return *p;
}`
	_, rs := runChecker(t, freeChecker, map[string]string{"d.c": src}, DefaultOptions())
	if rs.Len() != 1 {
		t.Errorf("do-while: %v", rs.Reports)
	}
}

func TestNativeGoExtension(t *testing.T) {
	// The general-purpose escape: a custom action verb and a custom
	// callout registered from Go (the paper's C-code escapes).
	src := `
void audit_log(int level, const char *msg);
void f(void) {
    audit_log(9, "too chatty");
    audit_log(1, "fine");
}`
	checkerSrc := `
sm audit_checker;
decl any_expr lvl;
decl any_expr msg;

start:
    { audit_log(lvl, msg) } && ${ my_level_above(lvl, 5) } ==> start,
        { my_record(lvl); err("noisy audit at level %s", mc_identifier(lvl)); }
;`
	p := buildProg(t, map[string]string{"a.c": src})
	c, err := metal.Parse(checkerSrc)
	if err != nil {
		t.Fatal(err)
	}
	en := NewEngine(p, c, DefaultOptions())
	var recorded []string
	en.RegisterCallout("my_level_above", func(ctx *pattern.Ctx, args []pattern.CalloutArg) bool {
		if len(args) != 2 || !args[0].Bound || !args[1].IsInt {
			return false
		}
		v, ok := cc.ConstEval(args[0].Binding.Expr)
		return ok && v > args[1].Int
	})
	en.RegisterAction("my_record", func(ctx *ActionCtx, args []metal.ActionArg) {
		if len(args) == 1 {
			recorded = append(recorded, ctx.argString(args[0]))
		}
	})
	rs := en.Run()
	if rs.Len() != 1 || !strings.Contains(rs.Reports[0].Msg, "level 9") {
		t.Errorf("custom callout/action: %v", rs.Reports)
	}
	if len(recorded) != 1 || recorded[0] != "9" {
		t.Errorf("custom action recorded %v", recorded)
	}
}

// TestFPPHavocAcrossCall: facts about a variable whose address is
// passed to a callee are dropped (the callee may write through the
// pointer), so the contradictory-branch pruning must NOT fire.
func TestFPPHavocAcrossCall(t *testing.T) {
	src := `
void kfree(void *p);
void set_flag(int *f) {
    *f = 0;
}
int entry(int *p, int x) {
    if (x) {
        kfree(p);
    }
    set_flag(&x);
    if (!x)
        return *p;
    return 0;
}`
	_, rs := runChecker(t, freeChecker, map[string]string{"h.c": src}, DefaultOptions())
	// After set_flag(&x), x may have changed: the path
	// "x true at first branch, !x true at second" is feasible, so the
	// use-after-free must be reported, not pruned.
	if rs.Len() != 1 || !hasReportAt(rs, 12, "after free") {
		t.Errorf("havoc across call: got %v", rs.Reports)
	}
}

// TestFPPNoHavocWithoutAddress: a call that cannot reach x leaves the
// facts intact and the contradiction still prunes.
func TestFPPNoHavocWithoutAddress(t *testing.T) {
	src := `
void kfree(void *p);
void unrelated(int v) {
    v = v + 1;
}
int entry(int *p, int x) {
    if (x) {
        kfree(p);
    }
    unrelated(x);
    if (!x)
        return *p;
    return 0;
}`
	_, rs := runChecker(t, freeChecker, map[string]string{"h.c": src}, DefaultOptions())
	if rs.Len() != 0 {
		t.Errorf("by-value call must not havoc x; contradiction should prune: %v", rs.Reports)
	}
}

// TestLockSurvivesContentWrite: lock state attached to &mutex survives
// writes to mutex itself — addresses are storage identity, not value
// (§8 kill semantics).
func TestLockSurvivesContentWrite(t *testing.T) {
	src := `
void lock(int *l); void unlock(int *l);
int mutex;
void f(int v) {
    lock(&mutex);
    mutex = v;
    unlock(&mutex);
}`
	_, rs := runChecker(t, lockChecker, map[string]string{"l.c": src}, DefaultOptions())
	if rs.Len() != 0 {
		t.Errorf("writing the lock word must not kill &mutex state: %v", rs.Reports)
	}
}

// TestReturnStatementPattern: "{ return v }" matches return statements
// only (§4 statement patterns).
func TestReturnStatementPattern(t *testing.T) {
	checkerSrc := `
sm ret_checker;
state decl any_pointer v;

start:
    { seed(v) } ==> v.tracked
;

v.tracked:
    { return v } ==> v.stop, { err("%s escapes via return", mc_identifier(v)); }
;
`
	src := `
void seed(int *p); void sink(int *p);
int *escapes(int *p) {
    seed(p);
    return p;
}
int *stays(int *p, int *q) {
    seed(p);
    sink(p);
    return q;
}`
	_, rs := runChecker(t, checkerSrc, map[string]string{"r.c": src}, DefaultOptions())
	if rs.Len() != 1 || rs.Reports[0].Func != "escapes" {
		t.Errorf("return pattern: %v", rs.Reports)
	}
}

// TestBareReturnPattern: "{ return }" matches only valueless returns.
func TestBareReturnPattern(t *testing.T) {
	checkerSrc := `
sm bare_ret;

start:
    { return } ==> start, { err("bare return"); }
;
`
	src := `
void f(int c) {
    if (c)
        return;
    c = 1;
}
int g(void) {
    return 2;
}`
	_, rs := runChecker(t, checkerSrc, map[string]string{"b.c": src}, DefaultOptions())
	if rs.Len() != 1 || rs.Reports[0].Func != "f" {
		t.Errorf("bare return pattern: %v", rs.Reports)
	}
}

// TestRecursionUnsoundness pins §7: inside recursive loops the engine
// accepts possibly-incomplete function summaries instead of analyzing
// conservatively, and counts how often (Stats.RecursionCuts).
func TestRecursionUnsoundness(t *testing.T) {
	src := `
void kfree(void *p);
int walk(int *p, int n) {
    if (n > 0)
        return walk(p, n - 1);
    kfree(p);
    return 0;
}
int entry(int *p, int n) {
    walk(p, n);
    return *p;
}`
	en, _ := runChecker(t, freeChecker, map[string]string{"r.c": src}, DefaultOptions())
	if en.Stats.RecursionCuts == 0 {
		t.Error("recursive call should record a recursion cut")
	}
}

// TestMaxPartitionsCap: a callee that leaves five objects in two
// states each has 2^5 = 32 disjoint exit states; the caller continues
// from exactly 16 of them (MaxPartitions, §6.3 step 5) and drops the
// rest. tick() counts the continuations that reach mark(); the block
// cache is off so that none of them stops early, covered by another.
func TestMaxPartitionsCap(t *testing.T) {
	checkerSrc := `
sm two_way;
state decl any_pointer v;

start:
    { begin(v) } ==> v.s0
  | { mark() }   ==> start, { tick(); }
;

v.s0:
    { go1(v) } ==> v.s1
  | { go2(v) } ==> v.s2
;
`
	src := `
void begin(int *p); void go1(int *p); void go2(int *p); void mark(void);
void split(int *a, int *b, int *c, int *d, int *e, int x) {
    if (x & 1) go1(a); else go2(a);
    if (x & 2) go1(b); else go2(b);
    if (x & 4) go1(c); else go2(c);
    if (x & 8) go1(d); else go2(d);
    if (x & 16) go1(e); else go2(e);
}
void entry(int *a, int *b, int *c, int *d, int *e, int x) {
    begin(a); begin(b); begin(c); begin(d); begin(e);
    split(a, b, c, d, e, x);
    mark();
}`
	c, err := metal.Parse(checkerSrc)
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.BlockCache = false
	en := NewEngine(buildProg(t, map[string]string{"p.c": src}), c, opts)
	ticks := 0
	en.RegisterAction("tick", func(*ActionCtx, []metal.ActionArg) { ticks++ })
	en.Run()
	if ticks != 16 {
		t.Errorf("caller continued from %d of the callee's 32 exit states, want the cap, 16", ticks)
	}
}

// TestMaxCallDepthCut: a call made MaxCallDepth (64) calls below the
// root is not followed. In the chain f0 -> f1 -> ... -> f65, f64 is
// traversed and f65, which holds the free and its use, never is: the
// use-after-free goes unreported.
func TestMaxCallDepthCut(t *testing.T) {
	var sb strings.Builder
	sb.WriteString("void kfree(void *p);\n")
	sb.WriteString("int f65(int *p) { kfree(p); return *p; }\n")
	for i := 64; i >= 0; i-- {
		fmt.Fprintf(&sb, "int f%d(int *p) { return f%d(p); }\n", i, i+1)
	}
	en, rs := runChecker(t, freeChecker, map[string]string{"d.c": sb.String()}, DefaultOptions())
	if got := en.Stats.Analyses["f64"]; got != 1 {
		t.Errorf("f64, 64 calls below the root, traversed %d times, want 1", got)
	}
	if got := en.Stats.Analyses["f65"]; got != 0 {
		t.Errorf("f65, 65 calls below the root, traversed %d times, want 0 (cut)", got)
	}
	if rs.Len() != 0 {
		t.Errorf("the cut hides f65's use after free, got %v", rs.Reports)
	}
}
