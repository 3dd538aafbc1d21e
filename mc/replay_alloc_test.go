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
	files, err := a.parseSources(&IncrStats{})
	if err != nil {
		t.Fatal(err)
	}
	tree := NewUnitTree(files)
	shared := a.preMarked()
	var tasks []*unitTask
	allocs = testing.AllocsPerRun(5, func() {
		tasks = tree.tasks(0, a.checkers[0], a.checkerFPs[0], a.opts, shared)
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
// one more replayed report cost. Each bound is the go1.24 reading + 5 %
// (PR 46). (a) 11.160 per unit: its key string, the store's read buffer,
// the entry, its roots, its Analyses and Rules maps, its rule count and
// the two strings no other record had; (b) 4.200 per report: the strings
// it brings. The fractions are the probe's string table growing.
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
	if perUnit > 11.72 {
		t.Errorf("(a) %.3f objects per extra replayed unit, want <= 11.72", perUnit)
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
