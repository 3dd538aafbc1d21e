package mc

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/workload"
)

// runSuite analyzes the given sources with every bundled checker at the
// given parallelism and returns the result.
func runSuite(t *testing.T, srcs map[string]string, jobs int) *Result {
	t.Helper()
	a := NewAnalyzer()
	if err := a.Configure(RunConfig{Jobs: jobs}); err != nil {
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
	a.MarkFunction("disk_sync", "blocking")
	res, err := a.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// reportKey captures every observable field of a report, including the
// full why-trace, so the comparison is report-for-report exact.
func reportKey(r *Report) string {
	return fmt.Sprintf("%s|%s|%s|%s|%v|%d|%d|%v|%d|%s|%s|%s",
		r.Checker, r.Rule, r.Msg, r.Func, r.Vars,
		r.Conditionals, r.SynonymDepth, r.Interprocedural, r.CallChain,
		r.Class, r.Pos, strings.Join(r.Trace, " ;; "))
}

// TestParallelRunMatchesSequential is the tentpole acceptance test: on
// the E11 seeded tree with the full bundled suite, -j 4 must produce
// output bit-identical to the sequential run — same reports in the same
// order with the same why-traces, same RuleStats, same Stats.
func TestParallelRunMatchesSequential(t *testing.T) {
	srcs, _ := workload.MixedTree(4, 25, 2002)
	seq := runSuite(t, srcs, 1)
	par := runSuite(t, srcs, 4)

	if len(seq.Reports) == 0 {
		t.Fatal("sequential run produced no reports; workload regressed")
	}
	if len(par.Reports) != len(seq.Reports) {
		t.Fatalf("report count: parallel %d, sequential %d",
			len(par.Reports), len(seq.Reports))
	}
	for i := range seq.Reports {
		s, p := reportKey(seq.Reports[i]), reportKey(par.Reports[i])
		if s != p {
			t.Errorf("report %d differs:\n  seq: %s\n  par: %s", i, s, p)
		}
	}
	// The ranked views must agree too (ranking is a pure function of
	// the reports, so this pins the ordering end to end).
	seqRanked, parRanked := seq.Ranked(), par.Ranked()
	for i := range seqRanked {
		if reportKey(seqRanked[i]) != reportKey(parRanked[i]) {
			t.Errorf("ranked report %d differs", i)
		}
	}
	if !reflect.DeepEqual(seq.RuleStats, par.RuleStats) {
		t.Errorf("RuleStats differ:\n  seq: %v\n  par: %v", seq.RuleStats, par.RuleStats)
	}
	if !reflect.DeepEqual(seq.Stats, par.Stats) {
		t.Errorf("Stats differ")
	}
}

// TestParallelismLevelsAgree sweeps worker counts; every level must
// reproduce the -j 1 output exactly.
func TestParallelismLevelsAgree(t *testing.T) {
	srcs, _ := workload.MixedTree(3, 12, 77)
	base := runSuite(t, srcs, 1)
	for _, j := range []int{2, 3, 8} {
		res := runSuite(t, srcs, j)
		if len(res.Reports) != len(base.Reports) {
			t.Fatalf("-j %d: report count %d, want %d", j, len(res.Reports), len(base.Reports))
		}
		for i := range base.Reports {
			if reportKey(res.Reports[i]) != reportKey(base.Reports[i]) {
				t.Errorf("-j %d: report %d differs", j, i)
			}
		}
	}
}

const pkSpySrc = `
sm pkspy;
decl any_fn_call fn;
decl any_arguments args;
start:
    { fn(args) } && ${ mc_fn_marked(fn, "pathkill") } ==> start, { err("call to marked fn"); }
;`

// TestPhaseOrderingSemantics pins the §3.2 composition contract under
// concurrency: a checker sees exactly the marks written by checkers
// loaded before it. The pkspy consumer reports marked calls, so loaded
// after panic-marker it fires, loaded before it stays silent — at every
// parallelism level.
func TestPhaseOrderingSemantics(t *testing.T) {
	src := `
void panic(void);
void die(int x) { if (x) { panic(); } }
`
	count := func(annotatorFirst bool, jobs int) int {
		a := NewAnalyzer()
		if err := a.Configure(RunConfig{Jobs: jobs}); err != nil {
			t.Fatal(err)
		}
		a.AddSource("t.c", src)
		load := func(first bool) {
			if first {
				if err := a.LoadBundledChecker("panic-marker"); err != nil {
					t.Fatal(err)
				}
			} else if err := a.LoadChecker(pkSpySrc); err != nil {
				t.Fatal(err)
			}
		}
		load(annotatorFirst)
		load(!annotatorFirst)
		res, err := a.RunContext(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for _, r := range res.Reports {
			if r.Checker == "pkspy" {
				n++
			}
		}
		return n
	}
	for _, j := range []int{1, 4} {
		if got := count(true, j); got == 0 {
			t.Errorf("-j %d: consumer after annotator saw no marks", j)
		}
		if got := count(false, j); got != 0 {
			t.Errorf("-j %d: consumer before annotator saw %d marks, want 0", j, got)
		}
	}
}

// TestAddFileKeepsSameBasenameDistinct pins the AddFile bugfix:
// registering a/util.c and b/util.c must analyze both, and re-adding a
// path already registered is an error.
func TestAddFileKeepsSameBasenameDistinct(t *testing.T) {
	dir := t.TempDir()
	for sub, body := range map[string]string{
		"a": "void fa(int *p) { kfree(p); *p = 1; }\n",
		"b": "void fb(int *q) { kfree(q); *q = 2; }\n",
	} {
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, sub, "util.c"), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	a := NewAnalyzer()
	if err := a.AddFile(filepath.Join(dir, "a", "util.c")); err != nil {
		t.Fatal(err)
	}
	if err := a.AddFile(filepath.Join(dir, "b", "util.c")); err != nil {
		t.Fatalf("same-basename file from another directory rejected: %v", err)
	}
	if err := a.AddFile(filepath.Join(dir, "a", "util.c")); err == nil {
		t.Fatal("re-adding the same path did not error")
	}
	if err := a.LoadBundledChecker("free"); err != nil {
		t.Fatal(err)
	}
	res, err := a.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]bool{}
	for _, r := range res.Reports {
		got[r.Func] = true
	}
	if !got["fa"] || !got["fb"] {
		t.Fatalf("reports cover funcs %v, want both fa and fb (one file silently overwrote the other)", got)
	}
}
