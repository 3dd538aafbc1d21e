package core

import (
	"context"
	"strings"
	"testing"

	"repro/internal/cc"
	"repro/internal/metal"
	"repro/internal/prog"
	"repro/internal/report"
)

func TestRunFunctionScopesToOne(t *testing.T) {
	src := `
void kfree(void *p);
int bad(int *p) { kfree(p); return *p; }
int other(int *q) { kfree(q); return *q; }
`
	p := buildProg(t, map[string]string{"r.c": src})
	c, _ := parseChecker(freeChecker)
	en := NewEngine(p, c, DefaultOptions())
	en.RunRootsContext(context.Background(), []*prog.Function{p.Lookup("bad")})
	if rs := en.Reports; rs.Len() != 1 || rs.Reports[0].Func != "bad" {
		t.Errorf("a run rooted at bad leaked beyond it: %v", rs.Reports)
	}
	if en.RunRootsContext(context.Background(), nil); en.Reports.Len() != 1 {
		t.Error("a run with no roots should be a no-op")
	}
}

// TestDuplicateReportRendersNothing: the second path to a violation
// finds the report the first one left and stops there — no Report, no
// Vars, no Trace — so it allocates nothing: the set is probed with a
// comparable key before anything is built.
func TestDuplicateReportRendersNothing(t *testing.T) {
	p := buildProg(t, map[string]string{"d.c": "int f(int *p) { return *p; }\n"})
	c, _ := parseChecker(freeChecker)
	obj, _ := cc.ParseExprString("p->next")
	en := NewEngine(p, c, DefaultOptions())
	st := &pathState{fn: p.Lookup("f")}
	ix := &en.intern
	inst := &Instance{v: ix.vars.id("v"), obj: ix.objs.id("p->next"), ObjExpr: obj, val: ix.vals.id("freed"), StartFunc: "f"}
	free, _ := cc.ParseExprString("kfree(p->next)")
	inst.trace = en.push(nil, traceEnters, free, "p->next", "freed")
	ctx := &en.act
	*ctx = actionCtx{Engine: en, State: st, Pos: cc.Pos{File: "d.c", Line: 1}, Inst: inst}
	en.emitReport(ctx, "using p->next after free!")
	dup := testing.AllocsPerRun(20, func() { en.emitReport(ctx, "using p->next after free!") })
	if en.Reports.Len() != 1 {
		t.Fatalf("%d reports, want the first and nothing else", en.Reports.Len())
	}
	if r := en.Reports.Reports[0]; len(r.Trace) != 2 || len(r.Vars) != 1 {
		t.Errorf("retained report: %d trace lines, vars %v; want 2, [p]", len(r.Trace), r.Vars)
	}
	// 0 objects (9 while the set keyed reports by a formatted string and
	// the Report was built before the set was asked). The count is exact
	// without -race (20 of 20 runs); the race detector adds objects of
	// its own, so under it only the report and trace assertions above
	// hold.
	if !raceEnabled && dup != 0 {
		t.Errorf("a duplicate report allocates %.0f objects, want 0", dup)
	}
}

func TestSetPathClassPrecedence(t *testing.T) {
	st := &pathState{}
	st.setPathClass(report.ClassMinor)
	if st.pathClass != report.ClassMinor {
		t.Error("annotation should beat none")
	}
	st.setPathClass(report.ClassError)
	if st.pathClass != report.ClassError {
		t.Error("higher priority should win")
	}
	st.setPathClass(report.ClassMinor)
	if st.pathClass != report.ClassError {
		t.Error("lower priority must not downgrade")
	}
	st.setPathClass(report.ClassSecurity)
	if st.pathClass != report.ClassSecurity {
		t.Error("SECURITY tops everything")
	}
}

func TestFindPolarityForms(t *testing.T) {
	target, _ := cc.ParseExprString("trylock(l)")
	wrap := func(src string) cc.Expr {
		e, err := cc.ParseExprString(src)
		if err != nil {
			t.Fatalf("%q: %v", src, err)
		}
		// Splice the shared target node in place of trylock(l) so
		// pointer identity is available for findPolarity.
		out, _ := substExpr(e, target, target)
		return out
	}
	cases := []struct {
		src  string
		neg  bool
		find bool
	}{
		{"trylock(l)", false, true},
		{"!trylock(l)", true, true},
		{"!!trylock(l)", false, true},
		{"trylock(l) == 0", true, true},
		{"trylock(l) != 0", false, true},
		{"trylock(l) && other", false, true},
		{"c ? trylock(l) : 0", false, true},
		{"x = trylock(l)", false, true},
		{"wrap(trylock(l))", false, true},
		{"something_else", false, false},
	}
	for _, cse := range cases {
		cond := wrap(cse.src)
		neg, found := findPolarity(cond, target, false)
		if found != cse.find || (found && neg != cse.neg) {
			t.Errorf("%q: neg=%v found=%v, want neg=%v found=%v", cse.src, neg, found, cse.neg, cse.find)
		}
	}
}

func TestRootIdentForms(t *testing.T) {
	cases := map[string]string{
		"p":         "p",
		"*p":        "p",
		"p->f.g":    "p",
		"a[i]":      "a",
		"(char *)p": "p",
		"&s.field":  "s",
		"f(x)":      "",
		"1 + 2":     "",
	}
	for src, want := range cases {
		e, err := cc.ParseExprString(src)
		if err != nil {
			t.Fatalf("%q: %v", src, err)
		}
		if got := rootIdent(e); got != want {
			t.Errorf("rootIdent(%s) = %q, want %q", src, got, want)
		}
	}
}

func TestValueDependsOnForms(t *testing.T) {
	cases := []struct {
		expr, name string
		want       bool
	}{
		{"x", "x", true},
		{"y", "x", false},
		{"&x", "x", false}, // address, not value
		{"&x", "y", false},
		{"*x", "x", true},
		{"&s->f", "s", true}, // address of field depends on the pointer
		{"a[i]", "i", true},
		{"a[i]", "a", true},
		{"x + y", "y", true},
		{"f(x)", "x", true},
		{"f(a)", "x", false},
		{"(long)x", "x", true},
		{"&arr[i]", "i", true},
		{"s.f", "s", true},
		{"c ? &x : y", "x", false},
		{"c ? x : y", "x", true},
		{"sizeof(x)", "x", true},
	}
	for _, c := range cases {
		e, err := cc.ParseExprString(c.expr)
		if err != nil {
			t.Fatalf("%q: %v", c.expr, err)
		}
		if got := valueDependsOn(e, c.name); got != c.want {
			t.Errorf("valueDependsOn(%s, %s) = %v, want %v", c.expr, c.name, got, c.want)
		}
	}
}

func TestSupergraphStringAndCalleeOf(t *testing.T) {
	src := `
void kfree(void *p);
void helper(int *h) { kfree(h); }
int entry(int *p) { helper(p); return *p; }
`
	p := buildProg(t, map[string]string{"s.c": src})
	c, _ := parseChecker(freeChecker)
	en := NewEngine(p, c, DefaultOptions())
	en.RunContext(context.Background())
	out := en.SupergraphString("helper")
	if !strings.Contains(out, "Entry to helper") || !strings.Contains(out, "block:") || !strings.Contains(out, "suffix:") {
		t.Errorf("supergraph output:\n%s", out)
	}
	if en.SupergraphString("nosuch") != "" {
		t.Error("unknown function should render empty")
	}
	// Resolve finds a direct call's definition.
	call, _ := cc.ParseExprString("helper(p)")
	if fn := p.Resolve(p.Lookup("entry"), call.(*cc.CallExpr)); fn == nil || fn.Name != "helper" {
		t.Errorf("Resolve = %v", fn)
	}
	indirect, _ := cc.ParseExprString("(*fp)(p)")
	if fn := p.Resolve(p.Lookup("entry"), indirect.(*cc.CallExpr)); fn != nil {
		t.Error("indirect call should not resolve")
	}
}

func TestActionArgForms(t *testing.T) {
	// Exercise argString/argInstance/ruleName/fnNamed arms via a
	// checker that uses every form.
	checkerSrc := `
sm argforms;
state decl any_pointer v;

start:
    { seed(v) } ==> v.tracked,
        { err("at %s in %s n=%s obj=%s", mc_location(), mc_function(), 42, mc_identifier(v)); rule("r", v); violation(); }
;
`
	src := `
void seed(int *p);
void f(int *p) { seed(p); }
`
	p := buildProg(t, map[string]string{"a.c": src})
	c, err := metal.Parse(checkerSrc)
	if err != nil {
		t.Fatal(err)
	}
	en := NewEngine(p, c, DefaultOptions())
	rs := en.RunContext(context.Background())
	if rs.Len() != 1 {
		t.Fatalf("reports = %v", rs.Reports)
	}
	msg := rs.Reports[0].Msg
	for _, frag := range []string{"a.c:3", "in f", "n=42", "obj=p"} {
		if !strings.Contains(msg, frag) {
			t.Errorf("msg %q missing %q", msg, frag)
		}
	}
	if rs.Reports[0].Rule != "r:p" {
		t.Errorf("rule = %q", rs.Reports[0].Rule)
	}
	// violation() with no args uses the transition's rule.
	if rc := en.RuleStats["r:p"]; rc == nil || rc.Violations != 1 {
		t.Errorf("rule stats = %+v", en.RuleStats)
	}
}

func TestMarkFnStringName(t *testing.T) {
	// mark_fn with a string literal argument.
	checkerSrc := `
sm marker;
decl any_fn_call fn;
decl any_arguments args;

start:
    { fn(args) } && ${ mc_is_call_to(fn, "seed") } ==> start, { mark_fn("target", "flagged"); }
;
`
	src := `
void seed(void);
void f(void) { seed(); }
`
	p := buildProg(t, map[string]string{"m.c": src})
	c, err := metal.Parse(checkerSrc)
	if err != nil {
		t.Fatal(err)
	}
	shared := NewShared()
	en := NewEngineShared(p, c, DefaultOptions(), shared)
	en.RunContext(context.Background())
	if !shared.FnMarks["target"]["flagged"] {
		t.Errorf("marks = %v", shared.FnMarks)
	}
}

func TestPendingCreationFalseStop(t *testing.T) {
	// Path-specific creation where the false side is a real state, not
	// stop (both sides create).
	checkerSrc := `
sm bimodal;
state decl any_pointer v;

start:
    { probe(v) } ==> true=v.yes, false=v.no
;

v.yes:
    { use(v) } ==> v.stop, { err("used yes"); }
;

v.no:
    { use(v) } ==> v.stop, { err("used no"); }
;
`
	src := `
int probe(int *p); void use(int *p);
void f(int *p) {
    if (probe(p))
        use(p);
    else
        use(p);
}
`
	_, rs := runChecker(t, checkerSrc, map[string]string{"b.c": src}, DefaultOptions())
	var sawYes, sawNo bool
	for _, r := range rs.Reports {
		if strings.Contains(r.Msg, "used yes") {
			sawYes = true
		}
		if strings.Contains(r.Msg, "used no") {
			sawNo = true
		}
	}
	if !sawYes || !sawNo {
		t.Errorf("both branch creations should fire: %v", rs.Reports)
	}
}
