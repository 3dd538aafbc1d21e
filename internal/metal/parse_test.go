package metal

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/pattern"
)

// freeCheckerSrc is Figure 1 of the paper, in this repository's metal
// syntax.
const freeCheckerSrc = `
sm free_checker;
state decl any_pointer v;

start:
    { kfree(v) } ==> v.freed
;

v.freed:
    { *v }       ==> v.stop, { err("using %s after free!", mc_identifier(v)); }
  | { kfree(v) } ==> v.stop, { err("double free of %s!", mc_identifier(v)); }
;
`

// lockCheckerSrc is Figure 3 of the paper.
const lockCheckerSrc = `
sm lock_checker;
state decl any_pointer l;

start:
    { lock(l) }    ==> l.locked
  | { trylock(l) } ==> true=l.locked, false=l.stop
  | { unlock(l) }  ==> l.stop, { err("releasing unacquired lock %s!", mc_identifier(l)); }
;

l.locked:
    { lock(l) }   ==> l.stop, { err("double acquire of %s!", mc_identifier(l)); }
  | { unlock(l) } ==> l.stop
  | $end_of_path$ ==> l.stop, { err("lock %s never released!", mc_identifier(l)); }
;
`

func TestParseFreeChecker(t *testing.T) {
	c, err := Parse(freeCheckerSrc)
	if err != nil {
		t.Fatal(err)
	}
	if c.Name != "free_checker" {
		t.Errorf("name = %q", c.Name)
	}
	if h := c.Vars["v"]; h == nil || h.Meta != pattern.MetaAnyPtr {
		t.Fatalf("v hole = %+v", c.Vars["v"])
	}
	if c.InitialGlobal() != "start" {
		t.Errorf("initial global = %q", c.InitialGlobal())
	}
	if got := c.VarStates["v"]; len(got) != 1 || got[0] != "freed" {
		t.Errorf("v states = %v", got)
	}
	if len(c.Transitions) != 3 {
		t.Fatalf("transitions = %d", len(c.Transitions))
	}
	// Creation transition.
	tr0 := c.Transitions[0]
	if tr0.Source != (StateRef{Val: "start"}) || tr0.Dest != (StateRef{Var: "v", Val: "freed"}) {
		t.Errorf("t0 = %s -> %s", tr0.Source, tr0.Dest)
	}
	// Error transitions carry actions.
	tr1 := c.Transitions[1]
	if !tr1.Dest.IsStop() || len(tr1.Actions) != 1 || tr1.Actions[0].Fn != "err" {
		t.Errorf("t1 = %+v", tr1)
	}
	if tr1.Actions[0].Args[0].Str != "using %s after free!" {
		t.Errorf("t1 msg = %q", tr1.Actions[0].Args[0].Str)
	}
	// Nested mc_identifier(v).
	nested := tr1.Actions[0].Args[1].Call
	if nested == nil || nested.Fn != "mc_identifier" || nested.Args[0].Hole != "v" {
		t.Errorf("nested action arg = %+v", tr1.Actions[0].Args[1])
	}
}

func TestParseLockChecker(t *testing.T) {
	c, err := Parse(lockCheckerSrc)
	if err != nil {
		t.Fatal(err)
	}
	var pathSpecific *Transition
	var endOfPath *Transition
	for _, tr := range c.Transitions {
		if tr.PathSpecific {
			pathSpecific = tr
		}
		if _, ok := tr.Pat.(pattern.EndOfPath); ok {
			endOfPath = tr
		}
	}
	if pathSpecific == nil {
		t.Fatal("trylock path-specific transition missing")
	}
	if pathSpecific.TrueDest != (StateRef{Var: "l", Val: "locked"}) ||
		!pathSpecific.FalseDest.IsStop() {
		t.Errorf("trylock dests: true=%s false=%s", pathSpecific.TrueDest, pathSpecific.FalseDest)
	}
	if endOfPath == nil {
		t.Fatal("$end_of_path$ transition missing")
	}
	if endOfPath.Source != (StateRef{Var: "l", Val: "locked"}) {
		t.Errorf("end-of-path source = %s", endOfPath.Source)
	}
}

// TestTransitionsFrom: each transition carries the source state it was
// declared under, which the engine indexes its dispatch by.
func TestTransitionsFrom(t *testing.T) {
	c := mustParse(t, freeCheckerSrc)
	from := map[StateRef]int{}
	for _, tr := range c.Transitions {
		from[tr.Source]++
	}
	if got := from[StateRef{Val: "start"}]; got != 1 {
		t.Errorf("from start: %d", got)
	}
	if got := from[StateRef{Var: "v", Val: "freed"}]; got != 2 {
		t.Errorf("from v.freed: %d", got)
	}
}

func TestGlobalStateChecker(t *testing.T) {
	// A checker using only global state (e.g. interrupt enable/disable).
	src := `
sm interrupt_checker;

enabled:
    { cli() } ==> disabled
;

disabled:
    { sti() } ==> enabled
  | { cli() } ==> disabled, { err("double cli"); }
  | $end_of_path$ ==> disabled, { err("exiting with interrupts disabled"); }
;
`
	c, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if c.InitialGlobal() != "enabled" {
		t.Errorf("initial = %q (first state in text wins)", c.InitialGlobal())
	}
	if len(c.GlobalStates) != 2 {
		t.Errorf("global states = %v", c.GlobalStates)
	}
}

func TestPatternComposition(t *testing.T) {
	src := `
sm gets_checker;
decl any_fn_call fn;
decl any_arguments args;

start:
    { fn(args) } && ${ mc_is_call_to(fn, "gets") } ==> start, { err("gets is unsafe"); }
;
`
	c, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Transitions[0].Pat.(*pattern.And); !ok {
		t.Errorf("pattern = %T, want And", c.Transitions[0].Pat)
	}
}

func TestConcreteCTypeHole(t *testing.T) {
	src := `
sm chartest;
decl char * s;

start:
    { use(s) } ==> start
;
`
	c, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	h := c.Vars["s"]
	if h == nil || h.CType == nil || h.CType.String() != "char *" {
		t.Fatalf("hole = %+v", h)
	}
}

func TestMultipleVarsOneDecl(t *testing.T) {
	src := `
sm two;
decl any_pointer a, b;

start:
    { pair(a, b) } ==> a.seen
;
a.seen:
    { use(a) } ==> a.stop
;
`
	c, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if c.Vars["a"] == nil || c.Vars["b"] == nil {
		t.Fatalf("vars = %v", c.Vars)
	}
	if c.Vars["a"].Name != "a" || c.Vars["b"].Name != "b" {
		t.Error("hole names not set per variable")
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name, src, frag string
	}{
		{"no header", `start: { f() } ==> start;`, "must begin"},
		{"bad pattern", `sm x; start: { f( } ==> start;`, "pattern"},
		{"undeclared var in dest", `sm x; start: { f(v) } ==> v.bad;`, "not a declared state variable"},
		{"cross-variable transition", `
sm x;
decl any_pointer a, b;
a.s1: { f(b) } ==> b.s2;`, "different variable"},
		{"creation without binding", `
sm x;
decl any_pointer v;
start: { f() } ==> v.made;`, "must bind"},
		{"action not a call", `
sm x;
decl any_pointer v;
start: { f(v) } ==> v.s, { 1 + 2; };`, "action"},
		{"unterminated brace", `sm x; start: { f(`, "unterminated"},
	}
	for _, tc := range cases {
		_, err := Parse(tc.src)
		if err == nil {
			t.Errorf("%s: expected error", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.frag) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.frag)
		}
	}
}

func TestCheckerString(t *testing.T) {
	c := mustParse(t, freeCheckerSrc)
	out := c.String()
	for _, frag := range []string{"sm free_checker;", "v.freed", "==>", "err("} {
		if !strings.Contains(out, frag) {
			t.Errorf("String() missing %q:\n%s", frag, out)
		}
	}
}

func TestSourceLinesCounted(t *testing.T) {
	c := mustParse(t, freeCheckerSrc)
	// Figure 1 is ~9 lines; our version is close. E9 checks the
	// 10-200 line claim.
	if c.SourceLines < 5 || c.SourceLines > 30 {
		t.Errorf("source lines = %d", c.SourceLines)
	}
}

func TestCommentsAndWhitespace(t *testing.T) {
	src := `
// leading comment
sm with_comments; /* block
comment */
state decl any_pointer v; // trailing

start: /* mid */ { kfree(v) } ==> v.freed;
v.freed: { *v } ==> v.stop;
`
	if _, err := Parse(src); err != nil {
		t.Fatal(err)
	}
}

func TestNegativeIntActionArg(t *testing.T) {
	src := `
sm d;
decl any_pointer v;
start: { f(v) } ==> v.s, { adjust(v, -3); };
`
	c, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	arg := c.Transitions[0].Actions[0].Args[1]
	if !arg.IsInt || arg.Int != -3 {
		t.Errorf("arg = %+v", arg)
	}
}

// TestHasVarState: the checker's state values per variable are the ones
// its transitions name, stop aside, which every variable has.
func TestHasVarState(t *testing.T) {
	c := mustParse(t, freeCheckerSrc)
	if got := c.VarStates["v"]; !slices.Equal(got, []string{"freed"}) {
		t.Errorf("v's states = %v, want [freed]", got)
	}
	if got := c.VarStates["w"]; got != nil {
		t.Errorf("undeclared variable w has states %v", got)
	}
	if !(StateRef{Var: "v", Val: StopState}).IsStop() {
		t.Error("stop is always a valid state")
	}
}

func TestParenthesizedPatternExpr(t *testing.T) {
	src := `
sm parens;
decl any_pointer v;
decl any_fn_call fn;
decl any_arguments args;

start:
    ({ kfree(v) } || { vfree(v) }) && ${ 1 } ==> v.freed
;
v.freed:
    { *v } ==> v.stop, { err("boom"); }
;
`
	c, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Transitions[0].Pat.(*pattern.And); !ok {
		t.Errorf("pattern = %T", c.Transitions[0].Pat)
	}
}

func TestPatternErrors(t *testing.T) {
	bad := []string{
		// Unclosed paren in a pattern expression.
		`sm x; start: ({ f() } ==> start;`,
		// Missing pattern after &&.
		`sm x; start: { f() } && ==> start;`,
		// Dest missing entirely.
		`sm x; start: { f() } ==> ;`,
		// true= without false=.
		`sm x; decl any_pointer v; start: { t(v) } ==> true=v.a;`,
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("%q: expected error", src)
		}
	}
}

func mustParse(t *testing.T, src string) *Checker {
	t.Helper()
	c, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	return c
}
