package harness

import (
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/pattern"
	"repro/mc"
)

// TestBundledCheckersAdmitted pins the ISSUE's first admission
// criterion: every checker we ship must clear the harness with the
// default settings — no panics, no budget trips, no negative z.
func TestBundledCheckersAdmitted(t *testing.T) {
	for _, s := range mc.BundledCheckers() {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			v, err := Validate(context.Background(), s.Text, DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			if !v.Admitted() {
				t.Fatalf("bundled checker rejected: %+v", v)
			}
			if v.Panicked || v.Degradations > 0 || v.TimedOut {
				t.Fatalf("isolation tripped on a bundled checker: %+v", v)
			}
		})
	}
}

// TestFreeCheckerScoresWell: the corpus seeds use-after-free and
// double-free bugs, so the free checker must find some (kill rate > 0)
// with a healthy z.
func TestFreeCheckerScoresWell(t *testing.T) {
	src := bundled(t, "free")
	v, err := Validate(context.Background(), src, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if v.Reports == 0 || v.TruePositives == 0 {
		t.Fatalf("free checker blind on the corpus: %+v", v)
	}
	if v.KillRate <= 0 {
		t.Errorf("kill rate = %v", v.KillRate)
	}
	if v.Z <= 0 {
		t.Errorf("z = %v for a checker that only hits seeded bugs (TP=%d FP=%d)", v.Z, v.TruePositives, v.FalsePositives)
	}
	if v.Checker != "free_checker" {
		t.Errorf("checker name = %q", v.Checker)
	}
}

// overReporter flags every function call it sees — the classic broken
// machine-written checker. On a corpus dense with benign calls its
// false positives swamp its true positives and z goes strongly
// negative.
const overReporter = `
sm eager_checker;
decl any_fn_call fn;
decl any_arguments args;

start:
    { fn(args) } ==> start, { err("call looks suspicious"); }
;
`

func TestOverReporterRejected(t *testing.T) {
	v, err := Validate(context.Background(), overReporter, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if v.Admitted() {
		t.Fatalf("over-reporter admitted: %+v", v)
	}
	if v.Z >= 0 {
		t.Errorf("z = %v, want strongly negative (TP=%d FP=%d)", v.Z, v.TruePositives, v.FalsePositives)
	}
	if !hasReason(v, "over-reporting") {
		t.Errorf("reasons = %v, want an over-reporting reason", v.Reasons)
	}
	// The structured verdict survives the trip: the daemon stores it
	// verbatim on the registry entry.
	if v.Status != StatusRejected {
		t.Errorf("status = %q", v.Status)
	}
}

// budgetBlower creates a tracking instance for every expression in the
// program — each instance multiplies block visits, so traversal cost
// explodes combinatorially where a reasonable checker is linear.
const budgetBlower = `
sm hog_checker;
state decl any_expr e;

start:
    { e } ==> e.seen
;

e.seen:
    { e } ==> e.seen
;
`

func TestBudgetBlowerRejected(t *testing.T) {
	v, err := Validate(context.Background(), budgetBlower, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if v.Admitted() {
		t.Fatalf("budget blower admitted: %+v", v)
	}
	if v.Degradations == 0 && !v.TimedOut {
		t.Errorf("no budget trip or timeout recorded: %+v", v)
	}
}

// panickyChecker carries a Go callout that panics mid-match. Metal
// source alone cannot panic the engine, so this is the native-
// extension failure mode — the harness must contain it and reject.
const panickyChecker = `
sm crashy_checker;
state decl any_pointer v;

start:
    { kfree(v) } ==> v.freed
;

v.freed:
    { *v } && ${ detonate(v) } ==> v.stop, { err("never emitted"); }
;
`

func TestPanickingCheckerRejected(t *testing.T) {
	callouts := map[string]mc.Callout{
		"detonate": func(ctx *pattern.Ctx, args []pattern.CalloutArg) bool {
			panic("validation-time callout bug")
		},
	}
	v, err := ValidateWithCallouts(context.Background(), panickyChecker, callouts, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if v.Admitted() {
		t.Fatalf("panicking checker admitted: %+v", v)
	}
	if !v.Panicked || !strings.Contains(v.PanicValue, "callout bug") {
		t.Errorf("panic not captured: %+v", v)
	}
	if !hasReason(v, "panicked") {
		t.Errorf("reasons = %v", v.Reasons)
	}
}

// A checker whose domain the corpus never exercises reports nothing
// and is admitted as harmless.
const silentChecker = `
sm silent_checker;

start:
    { frobnicate_nonexistent() } ==> start, { err("never matches"); }
;
`

func TestSilentCheckerAdmitted(t *testing.T) {
	v, err := Validate(context.Background(), silentChecker, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !v.Admitted() || v.Reports != 0 {
		t.Fatalf("silent checker verdict: %+v", v)
	}
}

func TestUnparseableCheckerIsError(t *testing.T) {
	if _, err := Validate(context.Background(), "sm broken; not metal at all", DefaultConfig()); err == nil {
		t.Fatal("unparseable checker produced a verdict instead of an error")
	}
}

// TestCallerCancellationIsError: the caller's context dying is not the
// checker's fault — no verdict, just the context error back.
func TestCallerCancellationIsError(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Validate(ctx, bundled(t, "free"), DefaultConfig()); err == nil {
		t.Fatal("cancelled validation returned a verdict")
	}
}

// TestCheckerTimeoutRejected: the harness's own deadline (its wall
// clock, cfg.Timeout) IS the checker's fault and rejects.
func TestCheckerTimeoutRejected(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Budgets = mc.Budgets{} // no step budget: force the clock to be the limiter
	cfg.Timeout = 1 * time.Millisecond
	v, err := Validate(context.Background(), budgetBlower, cfg)
	if err != nil {
		t.Fatalf("timeout should be a verdict, got error: %v", err)
	}
	if v.Admitted() {
		t.Fatalf("timed-out checker admitted: %+v", v)
	}
}

func bundled(t *testing.T, name string) string {
	t.Helper()
	for _, s := range mc.BundledCheckers() {
		if s.Name == name {
			return s.Text
		}
	}
	t.Fatalf("no bundled checker %q", name)
	return ""
}

func hasReason(v *Verdict, substr string) bool {
	for _, r := range v.Reasons {
		if strings.Contains(r, substr) {
			return true
		}
	}
	return false
}
