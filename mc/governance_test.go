package mc

// Governance tests at the public-API layer (DESIGN.md §9): panicking
// Go-callout checkers are isolated per checker, budgets degrade
// instead of wedging, cancellation is prompt, and degraded units never
// enter the incremental cache. All of this must hold under -race.

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/pattern"
	"repro/internal/workload"
)

// panickyChecker fires a Go callout that panics — a native-extension
// bug the engine must contain.
const panickyChecker = `
sm panicky;
state decl any_pointer v;
decl any_arguments rest;

start:
    { kfree(v) } ==> v.freed
;

v.freed:
    { printk(rest) } && ${ boom(v) } ==> v.stop, { err("never emitted"); }
;
`

const victimSrc = `
void kfree(void *p);
int printk(const char *fmt, ...);
int f(int *p) {
    kfree(p);
    printk("freed %p\n", p);
    return *p;
}`

func loadPanicky(t *testing.T, a *Analyzer) {
	t.Helper()
	err := a.LoadCheckerWithCallouts(panickyChecker, map[string]Callout{
		"boom": func(ctx *pattern.Ctx, args []pattern.CalloutArg) bool {
			panic("callout bug: boom() invoked")
		},
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestPanickingCalloutIsolatedPerChecker: the crashing checker lands
// in Result.Failures while the healthy free checker's reports arrive
// intact, and the analyzer object stays usable for another run.
func TestPanickingCalloutIsolatedPerChecker(t *testing.T) {
	a := NewAnalyzer()
	a.AddSource("victim.c", victimSrc)
	if err := a.LoadBundledChecker("free"); err != nil {
		t.Fatal(err)
	}
	loadPanicky(t, a)

	res, err := a.RunContext(context.Background())
	if err != nil {
		t.Fatalf("run with contained panic returned error: %v", err)
	}
	if len(res.Failures) != 1 || res.Failures[0].Checker != "panicky" {
		t.Fatalf("failures = %+v, want one for checker panicky", res.Failures)
	}
	if !strings.Contains(res.Failures[0].Panic, "boom() invoked") {
		t.Errorf("panic value lost: %q", res.Failures[0].Panic)
	}
	free := 0
	for _, r := range res.Reports {
		if r.Checker == "free_checker" {
			free++
		}
	}
	if free == 0 {
		t.Errorf("healthy checker's reports lost: %v", res.Reports)
	}

	// Same analyzer, next run: still functional (fresh engines per run).
	res2, err := a.RunContext(context.Background())
	if err != nil || len(res2.Failures) != 1 {
		t.Errorf("analyzer unusable after contained panic: %v %+v", err, res2)
	}
}

// explosionConfig is a path-explosion setup: block caching and FPP off
// so the diamond chain really explores 2^n paths.
func explosionConfig(budgets Budgets) RunConfig {
	opts := DefaultOptions()
	opts.BlockCache = false
	opts.FPP = false
	opts.Budgets = budgets
	return RunConfig{Options: &opts}
}

func TestPathExplosionBudgetDegrades(t *testing.T) {
	a := NewAnalyzer()
	a.AddSource("d.c", workload.DiamondChain(12).Source)
	if err := a.LoadBundledChecker("free"); err != nil {
		t.Fatal(err)
	}
	if err := a.Configure(explosionConfig(Budgets{FuncBlocks: 100})); err != nil {
		t.Fatal(err)
	}
	res, err := a.RunContext(context.Background())
	if err != nil {
		t.Fatalf("budget-degraded run returned error: %v", err)
	}
	if !res.Degraded || len(res.Degradations) == 0 {
		t.Fatalf("path explosion under budget not degraded: %+v", res)
	}
	if res.Degradations[0].Kind != "func-blocks" {
		t.Errorf("unexpected degradation kind: %+v", res.Degradations)
	}
}

func TestPreCancelledContext(t *testing.T) {
	a := NewAnalyzer()
	a.AddSource("v.c", victimSrc)
	if err := a.LoadBundledChecker("free"); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	_, err := a.RunContext(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Errorf("cancelled run took %v", d)
	}
	// The analyzer is still usable with a live context.
	if res, err := a.RunContext(context.Background()); err != nil || len(res.Reports) == 0 {
		t.Errorf("analyzer unusable after cancellation: %v", err)
	}
}

// TestConfigureTimeoutExpires: a run's time bound is its context's
// deadline; on expiry RunContext returns the partial result alongside
// context.DeadlineExceeded, promptly.
func TestConfigureTimeoutExpires(t *testing.T) {
	a := NewAnalyzer()
	a.AddSource("d.c", workload.DiamondChain(18).Source)
	if err := a.LoadBundledChecker("free"); err != nil {
		t.Fatal(err)
	}
	if err := a.Configure(explosionConfig(Budgets{})); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	start := time.Now()
	res, err := a.RunContext(ctx)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if res == nil || !res.Degraded {
		t.Errorf("timed-out run returned no partial, degraded result: %+v", res)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Errorf("timed-out run took %v to return", d)
	}
}

// TestUntrippedGovernanceIsInvisible: the configuration every governed
// caller pays for even when nothing is cut — a cancellable context
// plus budgets far above what the workload needs — is the plain run
// byte for byte, counter for counter, and records no degradation.
func TestUntrippedGovernanceIsInvisible(t *testing.T) {
	srcs, _ := workload.MixedTree(4, 25, 2002)
	plain := streamRun(t, srcs, 0, nil)
	if len(plain.Reports) == 0 {
		t.Fatal("plain run produced no reports; workload regressed")
	}

	a := NewAnalyzer()
	opts := DefaultOptions()
	opts.Budgets = Budgets{PathSteps: 1 << 40, FuncBlocks: 1 << 40, FuncTime: time.Hour}
	if err := a.Configure(RunConfig{Options: &opts}); err != nil {
		t.Fatal(err)
	}
	for name, src := range srcs {
		a.AddSource(name, src)
	}
	for _, s := range BundledCheckers() {
		if err := a.LoadBundledChecker(s.Name); err != nil {
			t.Fatal(err)
		}
	}
	a.MarkFunction("net_wait", "blocking")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	gov, err := a.RunContext(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if gov.Degraded || len(gov.Degradations) > 0 || len(gov.Failures) > 0 {
		t.Errorf("untripped budgets degraded or failed the run: %+v %+v", gov.Degradations, gov.Failures)
	}
	if streamDigest(gov) != streamDigest(plain) {
		t.Error("governed output differs from the plain run")
	}
	if !reflect.DeepEqual(gov.Stats, plain.Stats) {
		t.Error("governed run traversed differently from the plain run")
	}
}

// TestDegradedUnitNeverCached: a degraded unit must not be written to
// the store — a warm re-run finds nothing to replay.
func TestDegradedUnitNeverCached(t *testing.T) {
	store := cache.NewMemStore()
	run := func() *Result {
		a := NewAnalyzer()
		a.AddSource("d.c", workload.DiamondChain(12).Source)
		if err := a.LoadBundledChecker("free"); err != nil {
			t.Fatal(err)
		}
		cfg := explosionConfig(Budgets{FuncBlocks: 100})
		cfg.CacheStore = store
		if err := a.Configure(cfg); err != nil {
			t.Fatal(err)
		}
		res, err := a.RunContext(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	first := run()
	if !first.Degraded {
		t.Fatal("run under tight budget not degraded")
	}
	second := run()
	if !second.Degraded || second.Incr.UnitsReplayed != 0 {
		t.Errorf("degraded unit was cached: replayed=%d", second.Incr.UnitsReplayed)
	}
}

// TestCompleteRunStillCached: the degraded-never-cached rule must not
// break normal caching — an identical budget that never trips caches
// and replays as usual.
func TestCompleteRunStillCached(t *testing.T) {
	store := cache.NewMemStore()
	run := func() *Result {
		a := NewAnalyzer()
		a.AddSource("v.c", victimSrc)
		if err := a.LoadBundledChecker("free"); err != nil {
			t.Fatal(err)
		}
		opts := DefaultOptions()
		opts.Budgets.FuncBlocks = 1 << 40
		cfg := RunConfig{Options: &opts, CacheStore: store}
		if err := a.Configure(cfg); err != nil {
			t.Fatal(err)
		}
		res, err := a.RunContext(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	if first := run(); first.Degraded {
		t.Fatal("generous budget tripped unexpectedly")
	}
	if second := run(); second.Incr.UnitsReplayed == 0 {
		t.Error("complete governed run was not cached")
	}
}

// TestFailedCheckerRunNotCached: a warm run after a panicking-checker
// run must re-run the healthy checkers' units... unless they were
// complete. Only the panicking checker is uncacheable (it has
// callouts), so the free checker's complete unit DOES replay — the
// failure gate is per unit, not per run.
func TestFailedCheckerRunNotCached(t *testing.T) {
	store := cache.NewMemStore()
	run := func() *Result {
		a := NewAnalyzer()
		a.AddSource("v.c", victimSrc)
		if err := a.LoadBundledChecker("free"); err != nil {
			t.Fatal(err)
		}
		loadPanicky(t, a)
		if err := a.Configure(RunConfig{CacheStore: store}); err != nil {
			t.Fatal(err)
		}
		res, err := a.RunContext(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	first := run()
	if len(first.Failures) != 1 {
		t.Fatalf("failures = %+v", first.Failures)
	}
	second := run()
	if len(second.Failures) != 1 {
		t.Errorf("warm run lost the failure: %+v", second.Failures)
	}
	// The healthy checker's unit was complete and replays; the
	// panicking checker re-runs live every time (native callouts).
	if second.Incr.UnitsReplayed == 0 {
		t.Error("healthy checker's complete unit did not replay")
	}
}

// TestConfigureIsTheOnlySurface pins the post-migration contract: one
// Configure call covers options, parallelism, and cache wiring — the
// per-field setters from earlier releases no longer exist.
func TestConfigureIsTheOnlySurface(t *testing.T) {
	a := NewAnalyzer()
	a.AddSource("v.c", victimSrc)
	if err := a.LoadBundledChecker("free"); err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	if err := a.Configure(RunConfig{
		Options:    &opts,
		Jobs:       2,
		CacheStore: cache.NewMemStore(),
	}); err != nil {
		t.Fatal(err)
	}
	res, err := a.RunContext(context.Background())
	if err != nil || len(res.Reports) == 0 {
		t.Errorf("configured analyzer broken: %v", err)
	}
}
