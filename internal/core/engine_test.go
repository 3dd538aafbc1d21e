package core

import (
	"context"
	"strings"
	"testing"

	"repro/internal/metal"
	"repro/internal/prog"
	"repro/internal/report"
	"repro/internal/workload"
)

// freeChecker is the paper's Figure 1 and fig2 its Figure 2.
const (
	freeChecker = workload.Fig1Checker
	fig2        = workload.Fig2
)

func buildProg(t *testing.T, srcs map[string]string) *prog.Program {
	t.Helper()
	p, err := prog.BuildSource(srcs)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func runChecker(t *testing.T, checkerSrc string, srcs map[string]string, opts Options) (*Engine, *report.Set) {
	t.Helper()
	p := buildProg(t, srcs)
	c, err := metal.Parse(checkerSrc)
	if err != nil {
		t.Fatalf("checker: %v", err)
	}
	en := NewEngine(p, c, opts)
	return en, en.RunContext(context.Background())
}

func reportLines(rs *report.Set) []int {
	var out []int
	for _, r := range rs.Reports {
		out = append(out, r.Pos.Line)
	}
	return out
}

func hasReportAt(rs *report.Set, line int, frag string) bool {
	for _, r := range rs.Reports {
		if r.Pos.Line == line && strings.Contains(r.Msg, frag) {
			return true
		}
	}
	return false
}

// TestFig2Trace is experiment F2: the free checker finds exactly the
// two errors of §2.2 — the use of q after free at line 12 and the use
// of w after free at line 17 — and nothing else (the potential false
// positive at line 11 is suppressed by false path pruning).
func TestFig2Trace(t *testing.T) {
	en, rs := runChecker(t, freeChecker, map[string]string{"fig2.c": fig2}, DefaultOptions())
	if !hasReportAt(rs, 12, "using q after free!") {
		t.Errorf("missing use-after-free of q at line 12; got %v", rs.Reports)
	}
	if !hasReportAt(rs, 17, "using w after free!") {
		t.Errorf("missing use-after-free of w at line 17; got %v", rs.Reports)
	}
	if rs.Len() != 2 {
		for _, r := range rs.Reports {
			t.Logf("report: %s", r)
		}
		t.Errorf("want exactly 2 reports, got %d", rs.Len())
	}
	// Step 8/10 of the trace: two infeasible paths pruned.
	if en.Stats.PrunedPaths < 2 {
		t.Errorf("pruned paths = %d, want >= 2", en.Stats.PrunedPaths)
	}
}

// Without false path pruning, the contradictory-branch false positive
// at line 11 appears (the paper's step 8 explains why pruning is
// needed).
func TestFig2WithoutFPP(t *testing.T) {
	opts := DefaultOptions()
	opts.FPP = false
	_, rs := runChecker(t, freeChecker, map[string]string{"fig2.c": fig2}, opts)
	if !hasReportAt(rs, 11, "using w after free!") {
		t.Errorf("expected false positive at line 11 with FPP off; got lines %v", reportLines(rs))
	}
	if !hasReportAt(rs, 12, "using q after free!") {
		t.Errorf("true error at line 12 must still be found; got %v", reportLines(rs))
	}
}

// Without synonyms, the q = p assignment does not copy the freed
// state, so the line 12 error is missed (§8: "In Figure 2, the
// assignment on line 7 allows the analysis to catch the error on line
// 12").
func TestFig2WithoutSynonyms(t *testing.T) {
	opts := DefaultOptions()
	opts.Synonyms = false
	_, rs := runChecker(t, freeChecker, map[string]string{"fig2.c": fig2}, opts)
	if hasReportAt(rs, 12, "after free") {
		t.Error("line 12 requires synonym tracking; should be missed with synonyms off")
	}
	if !hasReportAt(rs, 17, "using w after free!") {
		t.Errorf("line 17 does not need synonyms; got %v", reportLines(rs))
	}
}

// Without kill-on-redefinition, p = 0 does not stop p's state machine.
// p then flows to line 12's *q deref fine, but also remains freed
// after contrived returns — no extra error appears in this example,
// but the double-free in killTest below shows the mechanism.
func TestKillOnRedefinition(t *testing.T) {
	src := `
void kfree(void *p);
int f(int *p) {
    kfree(p);
    p = 0;
    return *p;
}`
	_, rs := runChecker(t, freeChecker, map[string]string{"k.c": src}, DefaultOptions())
	if rs.Len() != 0 {
		t.Errorf("redefinition must kill the freed state; got %v", rs.Reports)
	}
	opts := DefaultOptions()
	opts.Kills = false
	_, rs2 := runChecker(t, freeChecker, map[string]string{"k.c": src}, opts)
	if rs2.Len() != 1 {
		t.Errorf("with kills off the stale state should fire; got %v", rs2.Reports)
	}
}

func TestSubExpressionKill(t *testing.T) {
	// "an expression (e.g., a[i]) with attached state is transitioned
	// to the stop state when a component of that expression (e.g., i)
	// is redefined" (§8).
	src := `
void kfree(void *p);
int f(int **a, int i) {
    kfree(a[i]);
    i = i + 1;
    return *a[i];
}`
	_, rs := runChecker(t, freeChecker, map[string]string{"k.c": src}, DefaultOptions())
	if rs.Len() != 0 {
		t.Errorf("a[i] state must die when i is redefined; got %v", rs.Reports)
	}
}

func TestDoubleFree(t *testing.T) {
	src := `
void kfree(void *p);
void f(int *p) {
    kfree(p);
    kfree(p);
}`
	_, rs := runChecker(t, freeChecker, map[string]string{"d.c": src}, DefaultOptions())
	if rs.Len() != 1 || !hasReportAt(rs, 5, "double free of p!") {
		t.Errorf("reports = %v", rs.Reports)
	}
}

func TestReinstantiationAfterStop(t *testing.T) {
	// "if the variable associated with the instance is freed again,
	// the transition in the start state will execute and thus
	// reinstantiate the deleted SM" (§2.1).
	src := `
void kfree(void *p);
void f(int *p, int *q) {
    kfree(p);
    kfree(p);
    kfree(p);
    kfree(p);
}`
	_, rs := runChecker(t, freeChecker, map[string]string{"r.c": src}, DefaultOptions())
	// kfree#1 creates; #2 errors and stops; #3 reinstantiates (no
	// error: the instance cannot trigger at its creation point);
	// #4 errors again.
	if rs.Len() != 2 || !hasReportAt(rs, 5, "double free") || !hasReportAt(rs, 7, "double free") {
		t.Errorf("want double-free reports at lines 5 and 7, got %v", rs.Reports)
	}
}

func TestNoTriggerAtCreationPoint(t *testing.T) {
	// "An instance cannot trigger a transition at the statement where
	// that instance was created; this restriction prevents a variable
	// that is freed for the first time from triggering a double-free
	// error at the same program point" (§3.1).
	src := `
void kfree(void *p);
void f(int *p) {
    kfree(p);
}`
	_, rs := runChecker(t, freeChecker, map[string]string{"c.c": src}, DefaultOptions())
	if rs.Len() != 0 {
		t.Errorf("single kfree must not report; got %v", rs.Reports)
	}
}

func TestBranchSplitStates(t *testing.T) {
	// The freed state exists only on the freeing path.
	src := `
void kfree(void *p);
int f(int *p, int c) {
    if (c)
        kfree(p);
    else
        return *p;
    return 0;
}`
	_, rs := runChecker(t, freeChecker, map[string]string{"b.c": src}, DefaultOptions())
	if rs.Len() != 0 {
		t.Errorf("no path both frees and uses p; got %v", rs.Reports)
	}
	src2 := `
void kfree(void *p);
int f(int *p, int c) {
    if (c)
        kfree(p);
    return *p;
}`
	_, rs2 := runChecker(t, freeChecker, map[string]string{"b.c": src2}, DefaultOptions())
	if rs2.Len() != 1 {
		t.Errorf("the freeing path reaches the deref; got %v", rs2.Reports)
	}
}

func TestInterproceduralFree(t *testing.T) {
	// State refines into the callee and restores to the caller.
	src := `
void kfree(void *p);
void helper(int *h) {
    kfree(h);
}
int entry(int *p) {
    helper(p);
    return *p;
}`
	_, rs := runChecker(t, freeChecker, map[string]string{"i.c": src}, DefaultOptions())
	if rs.Len() != 1 || !hasReportAt(rs, 8, "using p after free!") {
		t.Errorf("interprocedural use-after-free missed; got %v", rs.Reports)
	}
	for _, r := range rs.Reports {
		if !r.Interprocedural {
			t.Error("report should be marked interprocedural")
		}
	}
}

func TestInterproceduralErrorInCallee(t *testing.T) {
	// The error manifests inside the callee, in the caller's context.
	src := `
void kfree(void *p);
int use(int *u) {
    return *u;
}
int entry(int *p) {
    kfree(p);
    return use(p);
}`
	_, rs := runChecker(t, freeChecker, map[string]string{"i.c": src}, DefaultOptions())
	if rs.Len() != 1 || !hasReportAt(rs, 4, "after free") {
		t.Errorf("callee-side use-after-free missed; got %v", rs.Reports)
	}
}

func TestContextSensitivity(t *testing.T) {
	// Top-down: use() is analyzed separately per incoming state — the
	// call from ok() must not poison the call from bad().
	src := `
void kfree(void *p);
int use(int *u) {
    return *u;
}
int ok(int *a) {
    return use(a);
}
int bad(int *b) {
    kfree(b);
    return use(b);
}`
	_, rs := runChecker(t, freeChecker, map[string]string{"c.c": src}, DefaultOptions())
	if rs.Len() != 1 {
		t.Errorf("want exactly the bad() path error, got %v", rs.Reports)
	}
	if !hasReportAt(rs, 4, "after free") {
		t.Errorf("error should be at the deref in use(); got %v", reportLines(rs))
	}
}

func TestFunctionSummaryMemoization(t *testing.T) {
	// Many callsites in the same state: the callee is traversed once,
	// then served from its function summary (§6.2). The closing kfree
	// keeps the root from being skipped as inert (compile.go).
	src := `
void kfree(void *p);
void noop(int *n) {
    if (*n) { n = n; }
}
int entry(int *p) {
    noop(p); noop(p); noop(p); noop(p); noop(p);
    kfree(p);
    return 0;
}`
	en, _ := runChecker(t, freeChecker, map[string]string{"m.c": src}, DefaultOptions())
	if got := en.Analyses("noop"); got != 1 {
		t.Errorf("noop analyzed %d times, want 1", got)
	}
	if en.Stats.FuncCacheHits < 4 {
		t.Errorf("function cache hits = %d, want >= 4", en.Stats.FuncCacheHits)
	}
}

func TestFunctionReanalyzedInNewState(t *testing.T) {
	// Different incoming states re-traverse (top-down, §6.3): the
	// second call arrives with p freed.
	src := `
void kfree(void *p);
int use(int *u) {
    return *u;
}
int entry(int *p) {
    use(p);
    kfree(p);
    use(p);
    return 0;
}`
	en, rs := runChecker(t, freeChecker, map[string]string{"m.c": src}, DefaultOptions())
	if got := en.Analyses("use"); got != 2 {
		t.Errorf("use analyzed %d times, want 2 (two distinct states)", got)
	}
	if rs.Len() != 1 {
		t.Errorf("want 1 report from the freed call, got %v", rs.Reports)
	}
}

func TestRecursionTerminates(t *testing.T) {
	src := `
void kfree(void *p);
void recurse(int *p, int n) {
    if (n > 0)
        recurse(p, n - 1);
    kfree(p);
}`
	_, rs := runChecker(t, freeChecker, map[string]string{"r.c": src}, DefaultOptions())
	// Termination is the point; the kfree-after-recursion double free
	// may or may not be seen given §7's non-conservative recursion.
	_ = rs
}

func TestLoopTerminates(t *testing.T) {
	src := `
void kfree(void *p);
void f(int **a, int n) {
    int i;
    for (i = 0; i < n; i++) {
        kfree(a[0]);
        a = a + 1;
    }
}`
	en, _ := runChecker(t, freeChecker, map[string]string{"l.c": src}, DefaultOptions())
	if en.Stats.Blocks > 1000 {
		t.Errorf("loop traversal did not converge quickly: %d blocks", en.Stats.Blocks)
	}
}

func TestGlobalStateChecker(t *testing.T) {
	interrupts := `
sm interrupt_checker;

enabled:
    { cli() } ==> disabled
  | { sti() } ==> enabled, { err("sti with interrupts already enabled"); }
;

disabled:
    { sti() } ==> enabled
  | { cli() } ==> disabled, { err("double cli"); }
;
`
	src := `
void cli(void); void sti(void);
void ok(void) {
    cli();
    sti();
}
void bad(void) {
    cli();
    cli();
    sti();
}`
	_, rs := runChecker(t, interrupts, map[string]string{"g.c": src}, DefaultOptions())
	if rs.Len() != 1 || !hasReportAt(rs, 9, "double cli") {
		t.Errorf("reports = %v", rs.Reports)
	}
}

func TestBlockCacheLinearOnDiamonds(t *testing.T) {
	// A chain of N diamonds has 2^N paths; with block caching the
	// traversal is linear (§5.2).
	var sb strings.Builder
	sb.WriteString("void kfree(void *p);\nint f(int *p")
	for i := 0; i < 12; i++ {
		sb.WriteString(", int c")
		sb.WriteByte(byte('a' + i))
	}
	sb.WriteString(") {\n")
	for i := 0; i < 12; i++ {
		c := string(rune('a' + i))
		sb.WriteString("    if (c" + c + ") { p = p; } else { p = p; }\n")
	}
	// The closing kfree keeps the root from being skipped as inert.
	sb.WriteString("    kfree(p);\n    return 0;\n}\n")

	opts := DefaultOptions()
	opts.FPP = false // FPP is orthogonal here
	en, _ := runChecker(t, freeChecker, map[string]string{"d.c": sb.String()}, opts)
	if en.Stats.Blocks > 500 {
		t.Errorf("blocks traversed = %d; caching should make this linear (~60)", en.Stats.Blocks)
	}

	optsOff := opts
	optsOff.BlockCache = false
	optsOff.Budgets.FuncBlocks = 2_000_000
	en2, _ := runChecker(t, freeChecker, map[string]string{"d.c": sb.String()}, optsOff)
	if en2.Stats.Blocks < 4096 {
		t.Errorf("without caching expected exponential traversal, got %d blocks", en2.Stats.Blocks)
	}
}

// TestFig2Mutations: structured mutations of Figure 2, each asserting
// the exact expected report set — robustness beyond the single figure.
func TestFig2Mutations(t *testing.T) {
	cases := []struct {
		name string
		src  string
		want []int // lines with reports
	}{
		{
			// Branch conditions swapped: errors trade places — the use
			// of w becomes feasible, the use of q infeasible.
			"swapped-conditions",
			`int contrived(int *p, int *w, int x) {
    int *q;
    if(!x)
    {
        kfree(w);
        q = p;
        p = 0;
    }
    if(x)
        return *w;
    return *q;
}
int contrived_caller(int *w, int x, int *p) {
    kfree(p);
    contrived(p, w, x);
    return *w;
}
void kfree(void *p);`,
			[]int{11, 16},
		},
		{
			// The synonym source changed to w: *q is now a use of
			// freed w (via synonym), same two report sites.
			"synonym-of-w",
			`int contrived(int *p, int *w, int x) {
    int *q;
    if(x)
    {
        kfree(w);
        q = w;
        p = 0;
    }
    if(!x)
        return *w;
    return *q;
}
int contrived_caller(int *w, int x, int *p) {
    kfree(p);
    contrived(p, w, x);
    return *w;
}
void kfree(void *p);`,
			[]int{11, 16},
		},
		{
			// Guarded cleanup: the extra kill of q on the taken path
			// removes the line-11 report entirely.
			"kill-q-before-use",
			`int contrived(int *p, int *w, int x) {
    int *q;
    if(x)
    {
        kfree(w);
        q = p;
        p = 0;
        q = 0;
    }
    if(!x)
        return *w;
    return *q;
}
int contrived_caller(int *w, int x, int *p) {
    kfree(p);
    contrived(p, w, x);
    return *w;
}
void kfree(void *p);`,
			[]int{17},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, rs := runChecker(t, freeChecker, map[string]string{"m.c": c.src}, DefaultOptions())
			got := map[int]bool{}
			for _, r := range rs.Reports {
				got[r.Pos.Line] = true
			}
			if len(got) != len(c.want) {
				t.Fatalf("reports = %v, want lines %v", rs.Reports, c.want)
			}
			for _, line := range c.want {
				if !got[line] {
					t.Errorf("missing report at line %d; got %v", line, rs.Reports)
				}
			}
		})
	}
}
