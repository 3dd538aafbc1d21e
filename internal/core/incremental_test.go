package core

import (
	"context"
	"encoding/json"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/checkers"
	"repro/internal/metal"
	"repro/internal/prog"
)

const incrSrc = `
void kfree(void *p);
int use(int *p) { kfree(p); return *p; }
void safe(int *p) { kfree(p); }
void other(int x) { if (x) x = x + 1; }
`

func incrEngine(t *testing.T) (*Engine, *prog.Program) {
	t.Helper()
	p, err := prog.BuildSource(map[string]string{"incr.c": incrSrc})
	if err != nil {
		t.Fatal(err)
	}
	c, err := metal.Parse(freeChecker)
	if err != nil {
		t.Fatal(err)
	}
	return NewEngine(p, c, DefaultOptions()), p
}

func TestRunRootsMatchesRun(t *testing.T) {
	en1, _ := incrEngine(t)
	plain := en1.RunContext(context.Background())

	en2, p := incrEngine(t)
	runs := en2.RunRootsContext(context.Background(), p.Roots)
	// One run per root that reported, in root order: use's.
	if len(runs) != 1 || runs[0].Root.Name != "use" {
		t.Fatalf("got %d root runs, want use's alone", len(runs))
	}
	var cat []string
	for _, rr := range runs {
		if len(rr.Reports) == 0 {
			t.Errorf("%s: a root run with no report", rr.Root.Name)
		}
		for _, r := range rr.Reports {
			cat = append(cat, r.Detailed())
		}
	}
	if len(cat) != plain.Len() {
		t.Fatalf("segments total %d reports, Run produced %d", len(cat), plain.Len())
	}
	for i, r := range plain.Reports {
		if cat[i] != r.Detailed() {
			t.Errorf("report %d differs:\nsegmented: %s\nplain: %s", i, cat[i], r.Detailed())
		}
	}
}

// TestSilentRootsReturnNoRun: a whole-program run whose roots emit
// nothing returns no RootRun, whether a root was traversed (safe, other)
// or skipped as inert (a program with no call for the checker to fire
// on).
func TestSilentRootsReturnNoRun(t *testing.T) {
	c, err := metal.Parse(freeChecker)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		src     string
		skipped int64
	}{
		{"void kfree(void *p);\nvoid safe(int *p) { kfree(p); }\nvoid other(int x) { if (x) x = x + 1; }\n", 1},
		{"int add(int a, int b) { return a + b; }\nint twice(int a) { return a + a; }\n", 2},
	} {
		p, err := prog.BuildSource(map[string]string{"quiet.c": tc.src})
		if err != nil {
			t.Fatal(err)
		}
		en := NewEngine(p, c, DefaultOptions())
		if runs := en.RunRootsContext(context.Background(), p.Roots); runs != nil || en.Reports.Len() != 0 {
			t.Errorf("%d roots: %d root runs, %d reports; want none", len(p.Roots), len(runs), en.Reports.Len())
		}
		if en.Stats.RootsSkipped != tc.skipped {
			t.Errorf("%d roots skipped, want %d", en.Stats.RootsSkipped, tc.skipped)
		}
	}
}

func TestSharedSnapshotDeterministic(t *testing.T) {
	s := NewShared()
	if s.Snapshot() != "" {
		t.Errorf("empty snapshot = %q", s.Snapshot())
	}
	s.Mark("b", "k2")
	s.Mark("a", "k1")
	s.Mark("b", "k1")
	want := "a|k1\nb|k1\nb|k2"
	if got := s.Snapshot(); got != want {
		t.Errorf("snapshot = %q, want %q", got, want)
	}
	// Idempotent marks don't change it.
	s.Mark("a", "k1")
	if got := s.Snapshot(); got != want {
		t.Errorf("snapshot after repeat mark = %q, want %q", got, want)
	}
}

func TestSummaryExportImportRoundTrip(t *testing.T) {
	en, p := incrEngine(t)
	en.RunContext(context.Background())

	sd := en.ExportSummaries(p.All)
	data, err := json.Marshal(sd)
	if err != nil {
		t.Fatal(err)
	}
	var back SummaryData
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}

	// Import into a fresh engine and compare rendered supergraphs.
	en2, _ := incrEngine(t)
	en2.ImportSummaries(&back)
	for _, fn := range p.All {
		want := en.SupergraphString(fn.Name)
		got := en2.SupergraphString(fn.Name)
		if got != want {
			t.Errorf("%s supergraph differs after round trip:\ngot:\n%s\nwant:\n%s", fn.Name, got, want)
		}
		if en2.Analyses(fn.Name) != 0 {
			// Stats.Analyses is traversal-side; import touches only
			// funcInfo.Analyses.
			t.Errorf("%s: import bumped Stats.Analyses", fn.Name)
		}
	}
}

// TestImportForeignSymbols: a summary record written under other
// symbols — another checker's, or a stale one's — imports without a
// panic. A state, variable or value the engine's checker never declared
// gets a fresh number and no rule, none of the declared ones moves, and
// the record exports back unchanged. The engine then runs over the
// program with the foreign summary as its callee's, restoring a lock
// instance into a free checker's state at the call.
func TestImportForeignSymbols(t *testing.T) {
	p := buildProg(t, map[string]string{"lk.c": `
void kfree(void *p);
void spin_lock(int *l);
void take(int *l) { spin_lock(l); }
int f(int *l, int n) { kfree(l); take(l); return n; }
`})
	lock := NewEngine(p, mustChecker(t, checkers.Lock), DefaultOptions())
	lock.RunContext(context.Background())
	sd := lock.ExportSummaries([]*prog.Function{p.Lookup("take")})

	free := NewEngine(p, mustChecker(t, checkers.Free), DefaultOptions())
	ix := &free.intern
	vars, vals := slices.Clone(ix.vars.strs), slices.Clone(ix.vals.strs)
	if _, ok := ix.vals.find("locked"); ok {
		t.Fatal("the free checker declares locked; the record would not be foreign")
	}
	free.ImportSummaries(sd)
	if !slices.Equal(ix.vars.strs[:len(vars)], vars) || !slices.Equal(ix.vals.strs[:len(vals)], vals) {
		t.Errorf("import renumbered declared symbols: vars %q -> %q, vals %q -> %q", vars, ix.vars.strs, vals, ix.vals.strs)
	}
	l, okL := ix.vars.find("l")
	locked, okLocked := ix.vals.find("locked")
	if !okL || !okLocked || int(l) < len(vars) || int(locked) < len(vals) {
		t.Fatalf("foreign symbols l=%d (%v), locked=%d (%v); want fresh numbers past %d and %d", l, okL, locked, okLocked, len(vars), len(vals))
	}
	if rules := free.transIdx.at(l, locked).rules; len(rules) != 0 {
		t.Errorf("a foreign state has %d rules", len(rules))
	}
	if got := free.ExportSummaries([]*prog.Function{p.Lookup("take")}); !reflect.DeepEqual(got, sd) {
		t.Errorf("re-export differs from the imported record:\ngot  %+v\nwant %+v", got, sd)
	}
	free.RunContext(context.Background())
	if !strings.Contains(free.SupergraphString("f"), "(start,l:l->unknown) --> (start,l:l->locked)") {
		t.Errorf("the call to take restored no lock instance into f:\n%s", free.SupergraphString("f"))
	}
}

func TestMarkLogRecordsMarks(t *testing.T) {
	p, err := prog.BuildSource(map[string]string{"m.c": `
void panic(void);
void doomed(void) { panic(); }
void main_fn(void) { doomed(); }
`})
	if err != nil {
		t.Fatal(err)
	}
	c, err := metal.Parse(`
sm panic_marker;
decl any_fn_call fn;
decl any_arguments args;

start:
    { fn(args) } && ${ mc_is_call_to(fn, "panic") } ==> start, { mark_fn(fn, "pathkill"); }
;
`)
	if err != nil {
		t.Fatal(err)
	}
	en := NewEngine(p, c, DefaultOptions())
	en.RunContext(context.Background())
	found := false
	for _, ev := range en.MarkLog {
		if ev.Name == "panic" && ev.Key == "pathkill" {
			found = true
		}
	}
	if !found {
		t.Errorf("MarkLog missing panic|pathkill: %v", en.MarkLog)
	}
	if !en.shared.Marked("panic", "pathkill") {
		t.Error("shared store missing the mark")
	}
}
