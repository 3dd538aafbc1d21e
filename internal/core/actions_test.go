package core

import (
	"context"
	"strings"
	"testing"

	"repro/internal/cc"
	"repro/internal/pattern"
	"repro/internal/report"
)

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
