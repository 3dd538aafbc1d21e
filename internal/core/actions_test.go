package core

import (
	"context"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/cc"
	"repro/internal/checkers"
	"repro/internal/metal"
	"repro/internal/pattern"
	"repro/internal/report"
)

// TestVerbsAreMetalVerbs: the engine implements exactly the verbs the
// metal parser admits.
func TestVerbsAreMetalVerbs(t *testing.T) {
	var got []string
	for v := range verbs {
		got = append(got, v)
	}
	if slices.Sort(got); !slices.Equal(got, metal.Verbs) {
		t.Errorf("engine verbs %v, metal.Verbs %v", got, metal.Verbs)
	}
}

// TestCallRoundTrip: an action and a call-form callout are one parsed
// form with one renderer, so every call in the bundled checkers and in
// the why-trace checkers renders to text that parses back to itself.
func TestCallRoundTrip(t *testing.T) {
	srcs := []string{freeChecker, lockChecker, traceChecker}
	for _, s := range checkers.All() {
		srcs = append(srcs, s.Text)
	}
	var actions, callouts int
	check := func(checker string, c pattern.Call) {
		back, err := pattern.ParseCall(c.String())
		if err != nil || !reflect.DeepEqual(back, c) {
			t.Errorf("%s: %s parses back to %+v (err %v), want %+v", checker, c, back, err, c)
		}
	}
	for _, src := range srcs {
		c, err := metal.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		for _, tr := range c.Transitions {
			for _, a := range tr.Actions {
				actions++
				check(c.Name, a)
			}
			pattern.Walk(tr.Pat, func(p pattern.Pattern) {
				if co, ok := p.(*pattern.Callout); ok && !co.Const {
					callouts++
					check(c.Name, co.Call)
				}
			})
		}
	}
	if actions == 0 || callouts == 0 {
		t.Errorf("%d actions and %d callouts checked", actions, callouts)
	}
}

// TestTargetedSuppression reproduces §8 "Targeted suppression of false
// positives": the conservative free checker flags passing freed
// pointers to a debugging function; eight lines of checker text (one
// transition here) suppress the idiom.
func TestTargetedSuppression(t *testing.T) {
	conservative := `
sm free_strict;
state decl any_pointer v;
decl any_arguments rest;

start:
    { kfree(v) } ==> v.freed
;

v.freed:
    { *v }        ==> v.stop, { err("use after free of %s", mc_identifier(v)); }
  | { printk(rest) } && ${ mc_uses(v) } ==> v.freed, { err("freed %s passed to function", mc_identifier(v)); }
;
`
	suppressed := `
sm free_suppressed;
state decl any_pointer v;
decl any_arguments rest;

start:
    { kfree(v) } ==> v.freed
;

v.freed:
    { printk(rest) } && ${ mc_uses(v) } ==> v.freed
  | { *v } ==> v.stop, { err("use after free of %s", mc_identifier(v)); }
;
`
	src := `
void kfree(void *p);
int printk(const char *fmt, ...);
void f(int *p) {
    kfree(p);
    printk("freed %p\n", p);
}`
	p := buildProg(t, map[string]string{"s.c": src})
	for i, checkerSrc := range []string{conservative, suppressed} {
		c, err := parseChecker(checkerSrc)
		if err != nil {
			t.Fatal(err)
		}
		// mc_uses(v): the current point is a call mentioning v.
		c.Callouts = pattern.Registry{"mc_uses": func(ctx *pattern.Ctx, args []pattern.CalloutArg) bool {
			if len(args) != 1 || !args[0].Bound || args[0].Binding.Expr == nil {
				return false
			}
			return ctx.Point != nil && cc.SubExprOf(args[0].Binding.Expr, ctx.Point)
		}}
		rs := NewEngine(p, c, DefaultOptions()).RunContext(context.Background())
		if i == 0 && rs.Len() != 1 {
			t.Errorf("conservative checker should flag the printk idiom: %v", rs.Reports)
		}
		if i == 1 && rs.Len() != 0 {
			t.Errorf("suppressed checker should stay quiet: %v", rs.Reports)
		}
	}
}

// TestConditionalsCounted: reports record how many conditionals the
// tracked instance crossed (ranking criterion 2).
func TestConditionalsCounted(t *testing.T) {
	src := `
void kfree(void *p);
int f(int *p, int a, int b, int c) {
    kfree(p);
    if (a) { a = 1; }
    if (b) { b = 1; }
    if (c) { c = 1; }
    return *p;
}`
	_, rs := runChecker(t, freeChecker, map[string]string{"c.c": src}, DefaultOptions())
	if rs.Len() != 1 {
		t.Fatalf("reports = %v", rs.Reports)
	}
	if got := rs.Reports[0].Conditionals; got != 3 {
		t.Errorf("conditionals = %d, want 3", got)
	}
	if got := rs.Reports[0].Distance(); got != 4 {
		t.Errorf("distance = %d, want 4", got)
	}
	if got := rs.Reports[0].Score(); got != 34 {
		t.Errorf("score = %d, want 4 + 3*10", got)
	}
}

// TestSynonymDepthReported: q = p gives depth 1; r = q gives depth 2.
func TestSynonymDepthReported(t *testing.T) {
	src := `
void kfree(void *p);
int f(int *p) {
    int *q, *r;
    kfree(p);
    q = p;
    r = q;
    return *r;
}`
	_, rs := runChecker(t, freeChecker, map[string]string{"s.c": src}, DefaultOptions())
	if rs.Len() != 1 {
		t.Fatalf("reports = %v", rs.Reports)
	}
	if got := rs.Reports[0].SynonymDepth; got != 2 {
		t.Errorf("synonym depth = %d, want 2", got)
	}
}

// TestTwoStateVariables: an extension with two independent state
// variables tracks both object families at once.
func TestTwoStateVariables(t *testing.T) {
	checker := `
sm two_vars;
state decl any_pointer v;
state decl any_pointer l;

start:
    { kfree(v) } ==> v.freed
  | { lock(l) } ==> l.locked
;

v.freed:
    { *v } ==> v.stop, { err("use after free of %s", mc_identifier(v)); }
;

l.locked:
    { unlock(l) } ==> l.stop
  | $end_of_path$ ==> l.stop, { err("lock %s leaked", mc_identifier(l)); }
;
`
	src := `
void kfree(void *p); void lock(int *l); void unlock(int *l);
int m;
int f(int *p) {
    lock(&m);
    kfree(p);
    return *p;
}`
	_, rs := runChecker(t, checker, map[string]string{"t.c": src}, DefaultOptions())
	var sawFree, sawLock bool
	for _, r := range rs.Reports {
		if strings.Contains(r.Msg, "after free") {
			sawFree = true
		}
		if strings.Contains(r.Msg, "leaked") {
			sawLock = true
		}
	}
	if !sawFree || !sawLock {
		t.Errorf("both state variables must report: %v", rs.Reports)
	}
}

// TestNoteActionBuildsTrace: the note() action appends to why-traces.
func TestNoteActionBuildsTrace(t *testing.T) {
	checker := `
sm noter;
state decl any_pointer v;

start:
    { kfree(v) } ==> v.freed, { note("suspicious free of %s", mc_identifier(v)); }
;

v.freed:
    { *v } ==> v.stop, { err("boom on %s", mc_identifier(v)); }
;
`
	src := `
void kfree(void *p);
int f(int *p) {
    kfree(p);
    return *p;
}`
	_, rs := runChecker(t, checker, map[string]string{"n.c": src}, DefaultOptions())
	if rs.Len() != 1 {
		t.Fatalf("reports = %v", rs.Reports)
	}
	joined := strings.Join(rs.Reports[0].Trace, "\n")
	if !strings.Contains(joined, "suspicious free of p") {
		t.Errorf("trace missing note: %q", joined)
	}
}

// TestClassifyOrderIndependent: classify() after err() still applies.
func TestClassifyOrderIndependent(t *testing.T) {
	checker := `
sm late_classify;

start:
    { gets(b) } ==> start, { err("no"); classify("SECURITY"); }
;
`
	// The hole b is undeclared — make it a declared any_expr instead.
	checker = strings.Replace(checker, "sm late_classify;",
		"sm late_classify;\ndecl any_expr b;", 1)
	src := `
char *gets(char *s);
void f(char *buf) { gets(buf); }
`
	_, rs := runChecker(t, checker, map[string]string{"c.c": src}, DefaultOptions())
	if rs.Len() != 1 || rs.Reports[0].Class != report.ClassSecurity {
		t.Errorf("late classify ignored: %v", rs.Reports)
	}
}

// TestRuleActionGroupsReports: rule(fn) derives the grouping fact from
// a bound call.
func TestRuleActionGroupsReports(t *testing.T) {
	checker := `
sm ruled;
decl any_fn_call fn;
decl any_arguments args;

start:
    { fn(args) } && ${ mc_is_call_to(fn, "deprecated_api") } ==> start,
        { rule(fn); err("deprecated call"); violation(fn); }
;
`
	src := `
void deprecated_api(void);
void a(void) { deprecated_api(); }
void b(void) { deprecated_api(); }
`
	p := buildProg(t, map[string]string{"r.c": src})
	c, err := parseChecker(checker)
	if err != nil {
		t.Fatal(err)
	}
	en := NewEngine(p, c, DefaultOptions())
	rs := en.RunContext(context.Background())
	if rs.Len() != 2 {
		t.Fatalf("reports = %v", rs.Reports)
	}
	for _, r := range rs.Reports {
		if r.Rule != "deprecated_api()" {
			t.Errorf("rule = %q", r.Rule)
		}
	}
	if rc := en.RuleStats["deprecated_api()"]; rc == nil || rc.Violations != 2 {
		t.Errorf("rule stats = %+v", en.RuleStats)
	}
}

// TestRuleFactForms pins the rule fact every argument form of rule(),
// example() and violation() renders to, as RuleStats keys: a hole bound
// to an identifier, to a field access and to a call; a string; an int;
// mc_identifier and mc_function; several arguments joined by ':'; and no
// arguments, which is the transition's rule() when it has one and the
// checker's name when it has none.
func TestRuleFactForms(t *testing.T) {
	checker := `
sm facts;
decl any_expr a;

start:
    { ident_site(a) } ==> start, { example(a); }
  | { field_site(a) } ==> start, { violation(a); }
  | { call_site(a) }  ==> start, { example(a); }
  | { str_site() }    ==> start, { example("str_fact"); }
  | { int_site() }    ==> start, { violation(42); }
  | { id_site(a) }    ==> start, { example(mc_identifier(a)); }
  | { fn_site() }     ==> start, { violation(mc_function()); }
  | { join_site(a) }  ==> start, { example("str", 7, a); }
  | { ruled_site(a) } ==> start, { rule(a, "tag"); example(); violation(); }
  | { bare_site() }   ==> start, { violation(); }
;
`
	src := `
struct S { int lock; };
void ident_site(int x);
void field_site(int x);
void call_site(int x);
void str_site(void);
void int_site(void);
void id_site(int x);
void fn_site(void);
void join_site(int x);
void ruled_site(int x);
void bare_site(void);
int mk(int n);
void f(struct S *s, int x, int y, int w, int z, int n) {
    ident_site(x);
    field_site(s->lock);
    call_site(mk(n));
    str_site();
    int_site();
    id_site(y);
    fn_site();
    join_site(w);
    ruled_site(z);
    bare_site();
}
`
	en, _ := runChecker(t, checker, map[string]string{"r.c": src}, DefaultOptions())
	got := map[string]RuleCount{}
	for k, rc := range en.RuleStats {
		got[k] = *rc
	}
	want := map[string]RuleCount{
		"x":        {Examples: 1},
		"s->lock":  {Violations: 1},
		"mk(n)":    {Examples: 1},
		"str_fact": {Examples: 1},
		"42":       {Violations: 1},
		"y":        {Examples: 1},
		"f":        {Violations: 1},
		"str:7:w":  {Examples: 1},
		"z:tag":    {Examples: 1, Violations: 1},
		"facts":    {Violations: 1},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("RuleStats %v, want %v", got, want)
	}
}

// TestFormatSubstitutesOnce: err() and note() replace each %s once, left
// to right, and never look for a directive inside the text an argument
// put in: a bound string literal that reads "%s" stays as it is.
func TestFormatSubstitutesOnce(t *testing.T) {
	checker := `
sm fmt2;
decl any_expr a;
decl any_expr b;

start:
    { log2(a, b) } ==> start, { err("first %s second %s", mc_identifier(a), mc_identifier(b)); }
;
`
	src := `
void log2(const char *s, int n);
void f(int n) { log2("%s", n); }
`
	_, rs := runChecker(t, checker, map[string]string{"f.c": src}, DefaultOptions())
	if rs.Len() != 1 {
		t.Fatalf("reports = %v", rs.Reports)
	}
	if got, want := rs.Reports[0].Msg, `first "%s" second n`; got != want {
		t.Errorf("message %q, want %q", got, want)
	}
}
