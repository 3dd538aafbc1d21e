package mc_test

// Cold/warm equivalence property tests for the incremental cache
// (DESIGN.md §8): a warm run over an edited tree must be
// byte-identical to a fresh cold run of the same tree — ranked
// output, z-ranked output, rule groups, and engine statistics alike.

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/internal/cache"
	"repro/internal/workload"
	"repro/mc"
)

var incrCheckers = []string{"free", "lock", "null", "leak", "interrupt", "panic-marker", "block"}

func newIncrAnalyzer(t *testing.T, srcs map[string]string, jobs int, store cache.Store) *mc.Analyzer {
	t.Helper()
	a := mc.NewAnalyzer()
	if err := a.Configure(mc.RunConfig{Jobs: jobs, CacheStore: store}); err != nil {
		t.Fatal(err)
	}
	for name, src := range srcs {
		a.AddSource(name, src)
	}
	for _, c := range incrCheckers {
		if err := a.LoadBundledChecker(c); err != nil {
			t.Fatal(err)
		}
	}
	// Pre-marks exercise the composition channel in the cache keys.
	a.MarkFunction("printk", "blocking")
	return a
}

// outputDigest renders everything user-visible about a result.
func outputDigest(res *mc.Result) string {
	var sb strings.Builder
	for _, r := range res.Ranked() {
		sb.WriteString(r.Detailed())
	}
	sb.WriteString("== z ==\n")
	for _, r := range res.ZRanked() {
		sb.WriteString(r.Detailed())
	}
	sb.WriteString("== groups ==\n")
	for _, g := range res.Grouped() {
		fmt.Fprintf(&sb, "%s z=%.6f n=%d\n", g.Rule, g.Z, len(g.Reports))
	}
	sb.WriteString("== stats ==\n")
	names := make([]string, 0, len(res.Stats))
	for n := range res.Stats {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(&sb, "%s: %+v\n", n, res.Stats[n])
	}
	return sb.String()
}

func runDigest(t *testing.T, srcs map[string]string, jobs int, store cache.Store) (string, *mc.Result) {
	t.Helper()
	res, err := newIncrAnalyzer(t, srcs, jobs, store).RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return outputDigest(res), res
}

func TestCachedColdMatchesPlain(t *testing.T) {
	srcs, _ := workload.MixedTree(2, 8, 7)
	plain, _ := runDigest(t, srcs, 2, nil)
	cached, res := runDigest(t, srcs, 2, cache.NewMemStore())
	if cached != plain {
		t.Errorf("cold cached output differs from plain:\n%s", firstDiff(plain, cached))
	}
	if res.Incr == nil {
		t.Fatal("cached run has no IncrStats")
	}
	if res.Incr.UnitsReplayed != 0 {
		t.Errorf("cold run replayed %d units", res.Incr.UnitsReplayed)
	}
	if res.Incr.CachePuts == 0 {
		t.Error("cold run stored nothing")
	}
}

// TestWarmIdenticalRunReplaysEverything: an unchanged tree replays every
// unit, engine statistics included. Beside the E11 tree it holds a
// diamond chain, whose blocks pass the FPP fingerprint cap, and a
// file-scope static held across a call into another file, so the two
// approximation counters a record carries are not zero.
func TestWarmIdenticalRunReplaysEverything(t *testing.T) {
	srcs, _ := workload.MixedTree(4, 25, 2002)
	srcs["diamonds.c"] = workload.DiamondChain(16).Source
	srcs["held_a.c"] = `void kfree(void *p);
void held_helper(void);
static int *held_buf;
int held_entry(void) { kfree(held_buf); held_helper(); return *held_buf; }
`
	srcs["held_b.c"] = "void held_helper(void) {}\n"
	store := cache.NewMemStore()
	cold, cres := runDigest(t, srcs, 2, store)
	if free := cres.Stats["free_checker"]; free.FingerprintFallbacks == 0 || free.StaticsHeld != 1 {
		t.Errorf("cold run: FingerprintFallbacks %d, StaticsHeld %d; want > 0 and 1", free.FingerprintFallbacks, free.StaticsHeld)
	}
	warm, res := runDigest(t, srcs, 2, store)
	if warm != cold {
		t.Errorf("warm output differs:\n%s", firstDiff(cold, warm))
	}
	if res.Incr.FuncsAnalyzedLive != 0 {
		t.Errorf("unchanged warm run analyzed %d functions live", res.Incr.FuncsAnalyzedLive)
	}
	if res.Incr.FilesReparsed != len(srcs) {
		t.Errorf("warm run parsed %d files; pass 1 parses every file every run, %d", res.Incr.FilesReparsed, len(srcs))
	}
	if res.Incr.FuncsInvalidated != 0 || res.Incr.CachePuts != 0 {
		t.Errorf("unchanged warm run invalidated %d functions and wrote %d keys",
			res.Incr.FuncsInvalidated, res.Incr.CachePuts)
	}
}

// TestIncrementalProperty is the cold/warm equivalence property test:
// apply a deterministic random edit sequence, and after every edit
// assert the warm incremental run is byte-identical to a fresh cold
// run. Run with -race and -j > 1 via `make race`.
func TestIncrementalProperty(t *testing.T) {
	srcs, _ := workload.MixedTree(3, 10, 2002)
	store := cache.NewMemStore()
	if _, err := newIncrAnalyzer(t, srcs, 4, store).RunContext(context.Background()); err != nil {
		t.Fatal(err)
	}

	edits := workload.RandomEdits(srcs, []string{"f0_fn_0", "f1_fn_1"}, 6, 99)
	if len(edits) != 6 {
		t.Fatalf("got %d edits", len(edits))
	}
	for _, e := range edits {
		srcs = e.Apply(srcs)
		warm, wres := runDigest(t, srcs, 4, store)
		cold, _ := runDigest(t, srcs, 4, nil)
		if warm != cold {
			t.Fatalf("after %q: warm output differs from cold:\n%s", e.Name, firstDiff(cold, warm))
		}
		if wres.Incr.FuncsInvalidated == 0 {
			t.Errorf("after %q: no unit missed the store", e.Name)
		}
	}
}

// TestBodyTweakReplaysMostUnits pins the incremental win: a
// one-function body edit runs far fewer (checker, unit) pairs live
// than a cold run (7 against 210). Units, not function analyses:
// dispatch root-skipping can take the latter to zero.
func TestBodyTweakReplaysMostUnits(t *testing.T) {
	srcs, _ := workload.MixedTree(3, 10, 2002)
	store := cache.NewMemStore()
	_, cold := runDigest(t, srcs, 2, store)

	srcs = workload.TweakBody("tree_1.c").Apply(srcs)
	warmDigest, warm := runDigest(t, srcs, 2, store)
	plainDigest, _ := runDigest(t, srcs, 2, nil)
	if warmDigest != plainDigest {
		t.Fatalf("warm output differs from cold:\n%s", firstDiff(plainDigest, warmDigest))
	}
	coldLive := cold.Incr.UnitsLive
	warmLive := warm.Incr.UnitsLive
	if warmLive == 0 || coldLive/warmLive < 5 {
		t.Errorf("body tweak: %d live units warm vs %d cold (want >= 5x reduction)",
			warmLive, coldLive)
	}
	if warm.Incr.UnitsReplayed == 0 {
		t.Error("body tweak replayed no units")
	}
}

// TestDuplicateCheckerReplaysFully: two loaded checkers with identical
// source derive identical unit keys. Every task holding a key gets the
// record, so a warm run replays both copies, not just the last loaded.
func TestDuplicateCheckerReplaysFully(t *testing.T) {
	store := cache.NewMemStore()
	run := func() (string, *mc.IncrStats) {
		a := mc.NewAnalyzer()
		if err := a.Configure(mc.RunConfig{Jobs: 2, CacheStore: store}); err != nil {
			t.Fatal(err)
		}
		for name, src := range workload.CallRichTree() {
			a.AddSource(name, src)
		}
		for i := 0; i < 2; i++ {
			if err := a.LoadBundledChecker("free"); err != nil {
				t.Fatal(err)
			}
		}
		res, err := a.RunContext(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return outputDigest(res), res.Incr
	}
	cold, in := run()
	units := in.UnitsLive
	if units == 0 || units%2 != 0 || in.UnitsReplayed != 0 {
		t.Fatalf("cold run: %d units live, %d replayed", in.UnitsLive, in.UnitsReplayed)
	}
	warm, in := run()
	if in.UnitsLive != 0 || in.UnitsReplayed != units {
		t.Errorf("warm run: %d units live, %d replayed, want 0 and %d", in.UnitsLive, in.UnitsReplayed, units)
	}
	if warm != cold {
		t.Errorf("warm output differs:\n%s", firstDiff(cold, warm))
	}
}

func firstDiff(a, b string) string {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(al) && i < len(bl); i++ {
		if al[i] != bl[i] {
			return fmt.Sprintf("line %d:\n  cold: %s\n  warm: %s", i+1, al[i], bl[i])
		}
	}
	return fmt.Sprintf("lengths differ: %d vs %d lines", len(al), len(bl))
}
