package core

import (
	"os"
	"strings"
	"testing"
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
