package report

import (
	"strings"
	"testing"

	"repro/internal/cc"
)

func mk(file string, line int, fn, msg string, vars ...string) *Report {
	return &Report{
		Checker: "c",
		Msg:     msg,
		Pos:     cc.Pos{File: file, Line: line},
		Start:   cc.Pos{File: file, Line: line - 5},
		Func:    fn,
		Vars:    vars,
	}
}

func TestDistanceAndScore(t *testing.T) {
	r := &Report{
		Pos:          cc.Pos{File: "f", Line: 120},
		Start:        cc.Pos{File: "f", Line: 100},
		Conditionals: 2,
	}
	if r.Distance() != 20 {
		t.Errorf("distance = %d", r.Distance())
	}
	if r.Score() != 40 {
		t.Errorf("score = %d (20 + 2*10)", r.Score())
	}
	// Missing positions: zero distance, no panic.
	empty := &Report{}
	if empty.Distance() != 0 || empty.Score() != 0 {
		t.Error("empty report distances should be 0")
	}
}

func TestClassRankOrder(t *testing.T) {
	if !(ClassSecurity.Rank() < ClassError.Rank() &&
		ClassError.Rank() < ClassNone.Rank() &&
		ClassNone.Rank() < ClassMinor.Rank()) {
		t.Error("class rank ordering broken")
	}
}

func TestSetDeduplicates(t *testing.T) {
	s := &Set{}
	r1 := mk("a.c", 10, "f", "boom", "p")
	r2 := mk("a.c", 10, "f", "boom", "p") // same site, different path
	r3 := mk("a.c", 11, "f", "boom", "p")
	if !s.Add(r1) || s.Add(r2) || !s.Add(r3) {
		t.Error("dedup wrong")
	}
	if s.Len() != 2 {
		t.Errorf("len = %d", s.Len())
	}
}

// TestSetKeepsReportsWithBarInFields: two reports that differ only in
// where a '|' splits their message and rule are two reports, not one.
func TestSetKeepsReportsWithBarInFields(t *testing.T) {
	s := &Set{}
	r1 := mk("a.c", 10, "f", "a|b")
	r1.Rule = "r"
	r2 := mk("a.c", 10, "f", "a")
	r2.Rule = "b|r"
	if !s.Add(r1) || !s.Add(r2) {
		t.Error("the second report was taken for a repeat of the first")
	}
	if s.Len() != 2 {
		t.Errorf("len = %d, want 2", s.Len())
	}
}

func TestHistoryKeyInvariants(t *testing.T) {
	// Line changes do not affect the key; file, function, vars, and
	// message do (§8).
	a := mk("a.c", 10, "f", "boom", "p", "q")
	b := mk("a.c", 900, "f", "boom", "q", "p") // moved + var order shuffled
	if a.HistoryKey() != b.HistoryKey() {
		t.Error("history key must ignore line numbers and var order")
	}
	c := mk("a.c", 10, "g", "boom", "p", "q")
	if a.HistoryKey() == c.HistoryKey() {
		t.Error("function name must affect the key")
	}
	d := mk("b.c", 10, "f", "boom", "p", "q")
	if a.HistoryKey() == d.HistoryKey() {
		t.Error("file must affect the key")
	}
	e := mk("a.c", 10, "f", "bang", "p", "q")
	if a.HistoryKey() == e.HistoryKey() {
		t.Error("message must affect the key")
	}
}

func TestHistorySuppress(t *testing.T) {
	old := []*Report{mk("a.c", 10, "f", "boom", "p")}
	h := NewHistory(old)
	fresh := mk("a.c", 200, "f", "boom", "p") // same bug, moved
	novel := mk("a.c", 10, "f", "other bug", "p")
	out := h.Suppress([]*Report{fresh, novel})
	if len(out) != 1 || out[0] != novel {
		t.Errorf("suppress = %v", out)
	}
}

func TestStringAndDetailed(t *testing.T) {
	r := mk("a.c", 10, "f", "boom", "p")
	r.Class = ClassSecurity
	r.Trace = []string{"a.c:5: p enters state freed", "a.c:10: boom"}
	s := r.String()
	if !strings.Contains(s, "a.c:10") || !strings.Contains(s, "boom") || !strings.Contains(s, "SECURITY") {
		t.Errorf("String = %q", s)
	}
	d := r.Detailed()
	if !strings.Contains(d, "enters state freed") {
		t.Errorf("Detailed = %q", d)
	}
}
