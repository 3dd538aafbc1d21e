package core

import (
	"fmt"
	"os"
	"slices"
	"strings"
	"testing"

	"repro/internal/cc"
	"repro/internal/report"
)

// traceChecker moves an instance between two non-stop states and notes
// each step, so its reports carry the why-trace events the figure
// checkers never make: a note() and an instance transition ("->").
const traceChecker = `
sm trace_checker;
state decl any_pointer r;

start:
    { acquire(r) } ==> r.held, { note("acquired %s", mc_identifier(r)); }
;

r.held:
    { downgrade(r) } ==> r.shared, { note("downgrading %s", mc_identifier(r)); }
  | { release(r) }   ==> r.stop
  | $end_of_path$    ==> r.stop, { err("%s still held at exit", mc_identifier(r)); }
;

r.shared:
    { use_excl(r) } ==> r.stop, { err("exclusive use of shared %s", mc_identifier(r)); }
  | { release(r) }  ==> r.stop
;
`

// TestWhyTraceGolden pins the text of every why-trace the figure
// checkers (Figures 1 and 3) and traceChecker write over
// testdata/whytrace.c, as -why prints it (Report.Detailed). The program
// makes each event kind: an instance entering a state, a transition
// between two states, a synonym and a note; a trace that crosses a call
// through a computed and a reused summary; and a trylock-created
// instance, whose trace holds only its report's line.
func TestWhyTraceGolden(t *testing.T) {
	src, err := os.ReadFile("testdata/whytrace.c")
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("testdata/whytrace.golden")
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	for _, c := range []struct{ name, src string }{
		{"free", freeChecker}, {"lock", lockChecker}, {"trace", traceChecker},
	} {
		_, rs := runChecker(t, c.src, map[string]string{"whytrace.c": string(src)}, DefaultOptions())
		sb.WriteString("== " + c.name + "\n")
		for _, r := range rs.Reports {
			sb.WriteString(r.Detailed())
		}
	}
	got := sb.String()
	for _, event := range []string{" enters state ", " -> ", " becomes a synonym of ", ": acquired ", ": downgrading "} {
		if !strings.Contains(got, event) {
			t.Errorf("no trace line has %q", event)
		}
	}
	if got != string(want) {
		t.Errorf("why-traces differ from testdata/whytrace.golden; got:\n%s", got)
	}
}

// TestReportRenderAllocs: a kept report renders its whole why-trace into
// the engine's buffer and converts it to one string, so what it costs
// does not grow with its trace: the report, its lines, their text and
// its names, with a 1-event and an 8-event trace alike. The lines read
// as each event's format always has, a bare return's missing point
// included.
func TestReportRenderAllocs(t *testing.T) {
	p := buildProg(t, map[string]string{"d.c": "int f(int *p) { return *p; }\n"})
	c, _ := parseChecker(freeChecker)
	en := NewEngine(p, c, DefaultOptions())
	obj, _ := cc.ParseExprString("p->next")
	free, _ := cc.ParseExprString("kfree(p->next)")
	use, _ := cc.ParseExprString("*p->next")
	ix := &en.intern
	inst := &Instance{v: ix.vars.id("v"), obj: ix.objs.id("p->next"), ObjExpr: obj, val: ix.vals.id("freed"), StartFunc: "f"}
	ctx := &en.act
	*ctx = actionCtx{Engine: en, State: &pathState{fn: p.Lookup("f")}, Inst: inst}

	var trace *traceList
	var want []string
	push := func(kind traceKind, pt cc.Expr, a, b string) {
		trace = en.push(trace, kind, pt, a, b)
		pos := posOf(pt)
		switch kind {
		case traceEnters:
			want = append(want, fmt.Sprintf("%s: %s enters state %s at %s", pos, a, b, cc.ExprString(pt)))
		case traceMoves:
			want = append(want, fmt.Sprintf("%s: %s -> %s at %s", pos, a, b, cc.ExprString(pt)))
		case traceSynonym:
			want = append(want, fmt.Sprintf("%s: %s becomes a synonym of %s", pos, a, b))
		default:
			want = append(want, fmt.Sprintf("%s: %s", pos, a))
		}
	}
	// keep emits reports at distinct lines, each into a set of its own
	// made beforehand, and returns the objects one costs.
	line := 0
	keep := func() float64 {
		const runs = 20
		sets := make([]*report.Set, runs+1)
		for i := range sets {
			sets[i] = &report.Set{Reports: make([]*report.Report, 0, 2)}
			sets[i].Add(&report.Report{Msg: "seed"})
		}
		inst.trace = trace
		return testing.AllocsPerRun(runs, func() {
			line++
			en.Reports = sets[line%len(sets)]
			ctx.Pos = cc.Pos{File: "d.c", Line: line, Col: 9}
			en.emitReport(ctx, "using p->next after free!")
		})
	}

	push(traceEnters, free, "p->next", "freed")
	one := keep()
	push(traceMoves, use, "freed", "stale")
	push(traceMoves, nil, "stale", "gone")
	push(traceSynonym, use, "q", "p->next")
	push(traceNote, free, "noted p->next", "")
	for len(want) < 8 {
		push(traceNote, use, "again", "")
	}
	eight := keep()
	r := en.Reports.Reports[len(en.Reports.Reports)-1]
	want = append(want, fmt.Sprintf("%s: %s", r.Pos, r.Msg))
	if !slices.Equal(r.Trace, want) {
		t.Errorf("trace\n%s\nwant\n%s", strings.Join(r.Trace, "\n"), strings.Join(want, "\n"))
	}
	if !slices.Equal(r.Vars, []string{"p"}) {
		t.Errorf("vars %v, want [p]", r.Vars)
	}
	t.Logf("a kept report: %.0f objects with a 1-event trace, %.0f with an 8-event one", one, eight)
	// The count is exact without -race; the race detector adds objects
	// of its own.
	if !raceEnabled && (one != eight || eight > 4) {
		t.Errorf("a kept report costs %.0f objects with a 1-event trace and %.0f with an 8-event one; want the same, at most 4", one, eight)
	}
}

// BenchmarkReportRender is what a kept report's text costs (`make
// bench-micro`): its 8-event why-trace rendered into the engine's
// buffer, converted to one string and cut into lines, and its names.
func BenchmarkReportRender(b *testing.B) {
	obj, _ := cc.ParseExprString("p->next")
	free, _ := cc.ParseExprString("kfree(p->next)")
	en := new(Engine)
	trace := en.push(nil, traceEnters, free, "p->next", "freed")
	for range 7 {
		trace = en.push(trace, traceMoves, free, "freed", "stale")
	}
	var s reportScratch
	pos := cc.Pos{File: "d.c", Line: 1, Col: 9}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.trace(trace, pos, "using p->next after free!")
		s.identsOf(obj)
	}
}
