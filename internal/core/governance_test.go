package core

// Governance-layer tests (DESIGN.md §9): panic containment, traversal
// budgets, and context cancellation. Everything here must hold under
// -race — the CI isolation gate runs this package with it.

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/pattern"
	"repro/internal/workload"
)

// crashyChecker reports use-after-free normally but calls the Go
// callout explode (crashyCallouts) when it sees boom(v) on a freed
// pointer.
const crashyChecker = `
sm crashy;
state decl any_pointer v;

start:
    { kfree(v) } ==> v.freed
;

v.freed:
    { *v }       ==> v.stop, { err("use after free of %s", mc_identifier(v)); }
  | { boom(v) } && ${ explode() } ==> v.stop
;
`

const crashySrc = `
void kfree(void *p);
void boom(void *p);
int first(int *p) {
    kfree(p);
    return *p;
}
int second(int *p) {
    kfree(p);
    boom(p);
    return 0;
}`

func newCrashyEngine(t *testing.T, opts Options) *Engine {
	t.Helper()
	p := buildProg(t, map[string]string{"crash.c": crashySrc})
	c, err := parseChecker(crashyChecker)
	if err != nil {
		t.Fatal(err)
	}
	c.Callouts = crashyCallouts
	return NewEngine(p, c, opts)
}

var crashyCallouts = pattern.Registry{"explode": func(*pattern.Ctx, []pattern.CalloutArg) bool {
	panic("checker bug: explode() fired")
}}

// TestPanicContainedKeepsEarlierReports: a panicking callout becomes a
// structured CheckerFailure; the reports emitted before the crash
// survive and the process stays alive.
func TestPanicContainedKeepsEarlierReports(t *testing.T) {
	en := newCrashyEngine(t, DefaultOptions())
	rs := en.RunContext(context.Background())

	if en.Failure == nil {
		t.Fatal("panicking checker did not record a CheckerFailure")
	}
	if en.Failure.Checker != "crashy" || en.Failure.Root != "second" {
		t.Errorf("failure misattributed: %+v", en.Failure)
	}
	if !strings.Contains(en.Failure.Panic, "explode() fired") {
		t.Errorf("panic value lost: %q", en.Failure.Panic)
	}
	if en.Failure.Stack == "" {
		t.Error("failure carries no stack trace")
	}
	found := false
	for _, r := range rs.Reports {
		if r.Func == "first" && strings.Contains(r.Msg, "use after free") {
			found = true
		}
	}
	if !found {
		t.Errorf("report from the pre-crash root lost: %v", rs.Reports)
	}
}

// TestPanicSkipsRemainingRoots: RunRootsContext stops handing roots to
// a failed checker. The crashing function is declared first here, so
// the other root must be skipped.
func TestPanicSkipsRemainingRoots(t *testing.T) {
	src := `
void kfree(void *p);
void boom(void *p);
int crashes_first(int *p) {
    kfree(p);
    boom(p);
    return 0;
}
int never_reached(int *p) {
    kfree(p);
    return *p;
}`
	p := buildProg(t, map[string]string{"crash.c": src})
	c, err := parseChecker(crashyChecker)
	if err != nil {
		t.Fatal(err)
	}
	c.Callouts = crashyCallouts
	en := NewEngine(p, c, DefaultOptions())
	runs := en.RunRootsContext(context.Background(), en.Prog.Roots)
	if en.Failure == nil {
		t.Fatal("no CheckerFailure recorded")
	}
	if len(runs) >= len(en.Prog.Roots) {
		t.Errorf("all %d roots ran despite the panic", len(runs))
	}
	for _, r := range en.Reports.Reports {
		if r.Func == "never_reached" {
			t.Errorf("post-crash root was still analyzed: %v", r)
		}
	}
}

// explosionOpts defeats the block cache so the diamond workload really
// explores its exponential path set — the shape budgets exist to cut.
func explosionOpts() Options {
	o := DefaultOptions()
	o.BlockCache = false
	o.FPP = false
	return o
}

func runDiamond(t *testing.T, n int, opts Options, ctx context.Context) *Engine {
	t.Helper()
	pr := workload.DiamondChain(n)
	p := buildProg(t, map[string]string{"d.c": pr.Source})
	c, err := parseChecker(`
sm probe;
state decl any_pointer v;
start: { kfree(v) } ==> v.freed;
v.freed: { *v } ==> v.stop, { err("use after free"); };
`)
	if err != nil {
		t.Fatal(err)
	}
	en := NewEngine(p, c, opts)
	en.RunContext(ctx)
	return en
}

func hasKind(en *Engine, kind DegradeKind) bool {
	for _, d := range en.Degradations {
		if d.Kind == kind {
			return true
		}
	}
	return false
}

func TestFuncBlocksBudgetHaltsRoot(t *testing.T) {
	opts := explosionOpts()
	opts.Budgets.FuncBlocks = 50
	en := runDiamond(t, 12, opts, context.Background())
	if !en.Degraded() || !hasKind(en, DegradeFuncBlocks) {
		t.Fatalf("tight FuncBlocks budget did not degrade: %v", en.Degradations)
	}
	// The halt may overshoot by the blocks already on the DFS stack,
	// but not by orders of magnitude (an unbudgeted run visits >100k).
	if en.Stats.Blocks > 500 {
		t.Errorf("budget of 50 allowed %d block traversals", en.Stats.Blocks)
	}
}

func TestPathStepsBudgetTruncatesPath(t *testing.T) {
	opts := explosionOpts()
	opts.Budgets.PathSteps = 5
	en := runDiamond(t, 8, opts, context.Background())
	if !hasKind(en, DegradePathSteps) {
		t.Fatalf("tight PathSteps budget did not degrade: %v", en.Degradations)
	}
	// Truncation is per path, not per root: traversal continues on
	// sibling paths, so some work happens but far less than the full
	// 2^8 exploration.
	full := runDiamond(t, 8, explosionOpts(), context.Background())
	if en.Stats.Blocks >= full.Stats.Blocks {
		t.Errorf("budgeted run (%d blocks) did no less work than full run (%d)",
			en.Stats.Blocks, full.Stats.Blocks)
	}
}

// instanceHogChecker tracks an instance per expression. Under default
// options instances walk the CFG together (§5.2 independence), so
// block and step counts stay flat while per-point matching work grows
// quadratically — the cost profile only the instance-ops budget sees.
const instanceHogChecker = `
sm insthog;
state decl any_expr e;

start:
    { e } ==> e.seen
;

e.seen:
    { e } ==> e.seen
;
`

// instanceHogSrc is branchy straight-line arithmetic: many blocks (so
// the per-block budget check runs) and many expressions (so the hog
// accumulates instances), but a trivial workload for any reasonable
// checker.
func instanceHogSrc() string {
	var sb strings.Builder
	sb.WriteString("int work(int n) {\n")
	for i := 0; i < 40; i++ {
		fmt.Fprintf(&sb, "    if (n > %d) { n = n + %d; } else { n = n - %d; }\n", i, i+1, i+1)
	}
	sb.WriteString("    return n;\n}\n")
	return sb.String()
}

func runInstanceHog(t *testing.T, opts Options) *Engine {
	t.Helper()
	p := buildProg(t, map[string]string{"work.c": instanceHogSrc()})
	c, err := parseChecker(instanceHogChecker)
	if err != nil {
		t.Fatal(err)
	}
	en := NewEngine(p, c, opts)
	en.RunContext(context.Background())
	return en
}

func TestInstanceOpsBudgetHaltsRoot(t *testing.T) {
	full := runInstanceHog(t, DefaultOptions())
	if full.Degraded() {
		t.Fatalf("unbudgeted hog degraded: %v", full.Degradations)
	}
	if full.Stats.InstanceOps < 1000 {
		t.Fatalf("hog checker did only %d instance ops; workload too small to test the budget", full.Stats.InstanceOps)
	}
	opts := DefaultOptions()
	opts.Budgets.InstanceOps = 100
	en := runInstanceHog(t, opts)
	if !en.Degraded() || !hasKind(en, DegradeInstanceOps) {
		t.Fatalf("tight InstanceOps budget did not degrade: %v", en.Degradations)
	}
	// Enforcement is per block entry, so the halt overshoots by at
	// most one block's worth of points — not by orders of magnitude.
	if en.Stats.InstanceOps >= full.Stats.InstanceOps/2 {
		t.Errorf("budget of 100 allowed %d instance ops (unbudgeted: %d)",
			en.Stats.InstanceOps, full.Stats.InstanceOps)
	}
}

func TestInstanceOpsBudgetLeavesNormalCheckersAlone(t *testing.T) {
	// A single-instance checker under the harness-sized budget: the
	// instance stays live across the whole chain, so ops accrue, but
	// nowhere near the cap.
	opts := DefaultOptions()
	opts.Budgets.InstanceOps = 10_000
	en := runDiamond(t, 8, opts, context.Background())
	if hasKind(en, DegradeInstanceOps) {
		t.Fatalf("one-instance checker tripped the instance-ops budget: %v", en.Degradations)
	}
	if en.Stats.InstanceOps == 0 {
		t.Error("instance ops not counted for a live instance")
	}
}

func TestPathStepsBudgetDeterministic(t *testing.T) {
	render := func() string {
		opts := explosionOpts()
		opts.Budgets.PathSteps = 30
		en := runDiamond(t, 10, opts, context.Background())
		var sb strings.Builder
		for _, r := range en.Reports.Reports {
			sb.WriteString(r.String())
		}
		fmt.Fprintf(&sb, "|blocks=%d degr=%v", en.Stats.Blocks, en.Degradations)
		return sb.String()
	}
	if a, b := render(), render(); a != b {
		t.Errorf("step-budgeted runs diverged:\n%s\n%s", a, b)
	}
}

func TestFuncTimeBudgetHaltsRoot(t *testing.T) {
	opts := explosionOpts()
	opts.Budgets.FuncTime = time.Nanosecond
	en := runDiamond(t, 14, opts, context.Background())
	if !hasKind(en, DegradeFuncTime) {
		t.Fatalf("1ns FuncTime budget did not degrade: %v", en.Degradations)
	}
	// The deadline poll fires within one poll interval of root start.
	if en.Stats.Blocks > ctxPollInterval*4 {
		t.Errorf("expired deadline allowed %d block traversals", en.Stats.Blocks)
	}
}

func TestPreCancelledContextStopsPromptly(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	opts := explosionOpts()
	en := runDiamond(t, 16, opts, ctx) // unbudgeted 2^16 would take ages
	if !hasKind(en, DegradeCancelled) {
		t.Fatalf("cancelled context not recorded: %v", en.Degradations)
	}
	if got := len(en.Stats.Analyses); got != 0 {
		t.Errorf("pre-cancelled context still analyzed %d roots", got)
	}
}

// TestCancelMidTraversal: a cancel fired from inside the traversal (a
// checker callout, standing in for an external caller) stops the
// engine within one poll interval instead of finishing the
// exponential exploration.
func TestCancelMidTraversal(t *testing.T) {
	pr := workload.DiamondChain(18)
	p := buildProg(t, map[string]string{"d.c": pr.Source})
	c, err := parseChecker(`
sm tripper;
state decl any_pointer v;
start: { kfree(v) } && ${ trip() } ==> v.freed;
`)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	c.Callouts = pattern.Registry{"trip": func(*pattern.Ctx, []pattern.CalloutArg) bool { cancel(); return true }}
	en := NewEngine(p, c, explosionOpts())
	en.RunContext(ctx)
	if !en.Degraded() || !hasKind(en, DegradeCancelled) {
		t.Fatalf("mid-run cancel not recorded: %v", en.Degradations)
	}
	if en.Stats.Blocks > ctxPollInterval*8 {
		t.Errorf("cancel let %d block traversals through (poll interval %d)",
			en.Stats.Blocks, ctxPollInterval)
	}
}

// TestGovernanceOffByDefault: a plain Run records nothing and the
// engine struct stays on the ungoverned fast path.
func TestGovernanceOffByDefault(t *testing.T) {
	en := runDiamond(t, 6, DefaultOptions(), context.Background())
	if en.Degraded() || en.Failure != nil {
		t.Errorf("ungoverned run recorded governance events: %v %v", en.Degradations, en.Failure)
	}
	if en.govern {
		t.Error("govern flag set without budgets or cancellable context")
	}
}
