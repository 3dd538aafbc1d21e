package mc

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/cache"
)

// warmReplayAllocs fills a disk store with a cold run of the free
// checker over gen(n), then measures what the warm half of a run costs
// on the same tree: keying every unit (tasks), reading the records
// (one batched probe) and decoding and replaying each (probeTasks). It
// returns the heap objects of one such pass, with the units and reports
// it replayed.
func warmReplayAllocs(t *testing.T, gen func(n int) string, n int) (allocs float64, units, reports int) {
	t.Helper()
	store, err := cache.NewDirStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	a := NewAnalyzer()
	if err := a.Configure(RunConfig{Jobs: 1, CacheStore: store}); err != nil {
		t.Fatal(err)
	}
	a.AddSource("m.c", gen(n))
	if err := a.LoadBundledChecker("free"); err != nil {
		t.Fatal(err)
	}
	if _, err := a.RunContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	files, err := a.skimSources(&IncrStats{})
	if err != nil {
		t.Fatal(err)
	}
	tree := NewUnitTree(files)
	shared := a.preMarked()
	var tasks []*unitTask
	allocs = testing.AllocsPerRun(5, func() {
		tasks = tree.tasks(0, a.checkers[0], a.opts, shared)
		a.probeTasks(tasks, &IncrStats{})
	})
	for _, task := range tasks {
		if !task.replayed {
			t.Fatalf("a unit of %s did not replay", task.funcs[0].Name)
		}
		units++
		for _, rr := range task.runs {
			reports += len(rr.Reports)
		}
	}
	return allocs, units, reports
}

// TestWarmReplayAllocs is the warm path's ownership rule as a counter,
// in TestTraversalMarginalAllocs' idiom: what one more replayed unit and
// one more replayed report cost. Each bound is the go1.24 reading + 5 %.
// (a) 10.160 per unit: its key string, the entry, its roots, its
// Analyses and Rules maps, its rule count and the two strings no other
// record had (the store reads the whole batch into one buffer); (b)
// 4.200 per report: the strings it brings. The fractions are the
// probe's string table growing.
func TestWarmReplayAllocs(t *testing.T) {
	const small, large = 10, 60
	// (a) Units: n leaf functions, each its own unit; each frees its
	// argument and never uses it again, so the checker runs and stays
	// silent.
	leaves := func(n int) string {
		var sb strings.Builder
		sb.WriteString("void kfree(void *p);\n")
		for i := 0; i < n; i++ {
			fmt.Fprintf(&sb, "void leaf%d(int *p) { kfree(p); }\n", i)
		}
		return sb.String()
	}
	lo, loUnits, loReports := warmReplayAllocs(t, leaves, small)
	hi, hiUnits, hiReports := warmReplayAllocs(t, leaves, large)
	if hiUnits-loUnits != large-small || loReports+hiReports != 0 {
		t.Fatalf("(a) %d extra units replayed, %d reports; want %d, 0", hiUnits-loUnits, loReports+hiReports, large-small)
	}
	perUnit := (hi - lo) / float64(large-small)
	t.Logf("(a) %.3f objects per extra replayed unit", perUnit)
	if perUnit > 10.67 {
		t.Errorf("(a) %.3f objects per extra replayed unit, want <= 10.67", perUnit)
	}

	// (b) Reports: one function, so one unit, that frees and then uses
	// each of its n arguments.
	uses := func(n int) string {
		var params, body strings.Builder
		for i := 0; i < n; i++ {
			if i > 0 {
				params.WriteString(", ")
			}
			fmt.Fprintf(&params, "int *p%d", i)
			fmt.Fprintf(&body, "    kfree(p%d);\n    *p%d = 1;\n", i, i)
		}
		return "void kfree(void *p);\nvoid uses(" + params.String() + ") {\n" + body.String() + "}\n"
	}
	lo, loUnits, loReports = warmReplayAllocs(t, uses, small)
	hi, hiUnits, hiReports = warmReplayAllocs(t, uses, large)
	if loUnits != 1 || hiUnits != 1 || hiReports-loReports != large-small {
		t.Fatalf("(b) %d and %d units, %d extra reports; want 1, 1, %d", loUnits, hiUnits, hiReports-loReports, large-small)
	}
	perReport := (hi - lo) / float64(large-small)
	t.Logf("(b) %.3f objects per extra replayed report", perReport)
	if perReport > 4.41 {
		t.Errorf("(b) %.3f objects per extra replayed report, want <= 4.41", perReport)
	}
}

// warmRunAllocs fills a disk store with a cold run of the free checker
// over n leaf functions with the given body, then measures a whole warm
// RunContext over the unchanged tree: pass 1, keys, the batched probe
// and the replay, with nothing to run and no body to parse.
func warmRunAllocs(t *testing.T, body string, n int) float64 {
	t.Helper()
	store, err := cache.NewDirStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	a := NewAnalyzer()
	if err := a.Configure(RunConfig{Jobs: 1, CacheStore: store}); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	sb.WriteString("void kfree(void *p);\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, "void leaf%d(int *p, int n) {\n%s}\n", i, body)
	}
	a.AddSource("m.c", sb.String())
	if err := a.LoadBundledChecker("free"); err != nil {
		t.Fatal(err)
	}
	// Every body reaches its kfree: the records differ in nothing the
	// replay allocates for.
	if cold, err := a.RunContext(context.Background()); err != nil || cold.RuleStats["kfree"].Examples < n {
		t.Fatalf("cold run: %v, %+v", err, cold.RuleStats)
	}
	var res *Result
	allocs := testing.AllocsPerRun(5, func() {
		if res, err = a.RunContext(context.Background()); err != nil {
			t.Fatal(err)
		}
	})
	if in := res.Incr; in.UnitsLive != 0 || in.UnitsReplayed != n || in.BodiesParsed != 0 || res.Spill.ASTsReleased != 0 {
		t.Fatalf("warm run over %d functions: %d units live, %d replayed, %d bodies parsed, %d released; want 0, %d, 0, 0",
			n, in.UnitsLive, in.UnitsReplayed, in.BodiesParsed, res.Spill.ASTsReleased, n)
	}
	return allocs
}

// TestWarmRunSkipsReplayedBodies: a warm run parses no body of a unit
// it replays, so what one more replayed function costs a whole warm
// RunContext does not depend on its body — a one-call body and a
// 12-statement branchy one cost the same within one object. Readings
// (go1.24): 20.920 and 20.920 objects per extra function. Each bound is
// its reading + 5 %.
func TestWarmRunSkipsReplayedBodies(t *testing.T) {
	const small, large = 10, 60
	branchy := `    int a = n;
    if (a > 0) a = a - 1;
    if (a > 1) a = a * 2; else a = a + 3;
    while (a > 10) a = a - 2;
    a = a + (n > 2 ? n : 2);
    switch (a) { case 1: a = 2; break; default: a = 3; }
    if (a == 4) { a = 5; }
    a = a + n;
    do { a--; } while (a > 20);
    if (a < 0) a = 0;
    n = a;
    kfree(p);
`
	var readings []float64
	for _, c := range []struct {
		name, body string
		bound      float64
	}{
		{"kfree(p)", "    kfree(p);\n", 21.97},
		{"12 branchy statements", branchy, 21.97},
	} {
		lo := warmRunAllocs(t, c.body, small)
		hi := warmRunAllocs(t, c.body, large)
		per := (hi - lo) / float64(large-small)
		t.Logf("%s: %.3f objects per extra replayed function", c.name, per)
		if per > c.bound {
			t.Errorf("%s: %.3f objects per extra replayed function, want <= %.2f", c.name, per, c.bound)
		}
		readings = append(readings, per)
	}
	if d := readings[1] - readings[0]; d > 1 || d < -1 {
		t.Errorf("the branchy body costs %.3f objects more per replayed function than kfree(p); want within 1", d)
	}
}
