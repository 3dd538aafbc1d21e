package core

import (
	"fmt"
	"testing"
)

// witnessSrc frees p between two stretches of events in f and then
// follows g, whose own events must not reach f's witness: a callee's
// part of the event stack starts at its caller's top (DESIGN.md §13.1).
const witnessSrc = `void kfree(void *p);
int g(int x) { int y; y = x; if (y) y = y + 1; return y; }
int f(int *p, int n) {
    int k;
    k = n;
    if (k) k = 2;
    kfree(p);
    k = g(k);
    return *p + k;
}
`

// The witness path of a report emitted after a followed call is the
// caller's events, before and after the call, and none of the callee's.
func TestWitnessPathAcrossFollowedCall(t *testing.T) {
	_, rs := runChecker(t, freeChecker, map[string]string{"w.c": witnessSrc}, DefaultOptions())
	if rs.Len() != 1 {
		t.Fatalf("%d reports, want the use after free in f: %v", rs.Len(), rs.Reports)
	}
	r := rs.Reports[0]
	if r.Func != "f" || r.Pos.Line != 9 {
		t.Fatalf("report %s in %s; want line 9 of f", r, r.Func)
	}
	want := []string{"assign k=n", "branch k taken", "assign k=2", "assign k=g(k)"}
	var got []string
	for _, s := range r.Path {
		switch s.Kind {
		case evAssign:
			got = append(got, fmt.Sprintf("assign %s=%s", s.Text, s.RHS))
		case evBranch:
			dir := "not taken"
			if s.Taken {
				dir = "taken"
			}
			got = append(got, fmt.Sprintf("branch %s %s", s.Text, dir))
		default:
			got = append(got, fmt.Sprintf("%s %s", s.Kind, s.Text))
		}
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("witness path %q, want %q", got, want)
	}
}
