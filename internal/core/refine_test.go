package core

import (
	"context"
	"strings"
	"testing"

	"repro/internal/cc"
	"repro/internal/cfg"
)

// TestTable2RefineRestore is experiment T2: each row of Table 2,
// exercised end-to-end through the free checker. In every case the
// callee frees (or uses) the object and the caller observes the
// restored state.

// Row 1: actual xa, formal xf, state on xa — state(xf) = state(xa);
// restore by reference.
func TestT2Row1PlainArg(t *testing.T) {
	src := `
void kfree(void *p);
void callee(int *xf) {
    kfree(xf);
}
int caller(int *xa) {
    callee(xa);
    return *xa;
}`
	_, rs := runChecker(t, freeChecker, map[string]string{"t2.c": src}, DefaultOptions())
	if rs.Len() != 1 || !hasReportAt(rs, 8, "using xa after free!") {
		t.Errorf("row 1: got %v", rs.Reports)
	}
}

// Row 2: actual &xa, formal xf, state on xa — state(*xf) = state(xa).
func TestT2Row2AddressOf(t *testing.T) {
	// The callee dereferences the freed object through the pointer:
	// state travels in as *xf.
	src := `
void kfree(void *p);
int callee(int **xf) {
    return **xf;
}
int caller(int *xa) {
    kfree(xa);
    return callee(&xa);
}`
	_, rs := runChecker(t, freeChecker, map[string]string{"t2.c": src}, DefaultOptions())
	if rs.Len() != 1 || !hasReportAt(rs, 4, "after free") {
		t.Errorf("row 2 refine: got %v", rs.Reports)
	}
}

// Row 2 restore: the callee frees *xf; the caller's xa is then freed.
func TestT2Row2Restore(t *testing.T) {
	src := `
void kfree(void *p);
void callee(int **xf) {
    kfree(*xf);
}
int caller(int *xa) {
    callee(&xa);
    return *xa;
}`
	_, rs := runChecker(t, freeChecker, map[string]string{"t2.c": src}, DefaultOptions())
	if rs.Len() != 1 || !hasReportAt(rs, 8, "using xa after free!") {
		t.Errorf("row 2 restore: got %v", rs.Reports)
	}
}

// Row 3: actual xa, formal xf, state on xa.field.
func TestT2Row3Field(t *testing.T) {
	src := `
void kfree(void *p);
struct box { int *ptr; };
void callee(struct box xf) {
    kfree(xf.ptr);
}
int caller(struct box xa) {
    callee(xa);
    return *xa.ptr;
}`
	_, rs := runChecker(t, freeChecker, map[string]string{"t2.c": src}, DefaultOptions())
	if rs.Len() != 1 || !hasReportAt(rs, 9, "using xa.ptr after free!") {
		t.Errorf("row 3: got %v", rs.Reports)
	}
}

// Row 4: actual xa, formal xf, state on xa->field.
func TestT2Row4ArrowField(t *testing.T) {
	src := `
void kfree(void *p);
struct box { int *ptr; };
void callee(struct box *xf) {
    kfree(xf->ptr);
}
int caller(struct box *xa) {
    callee(xa);
    return *xa->ptr;
}`
	_, rs := runChecker(t, freeChecker, map[string]string{"t2.c": src}, DefaultOptions())
	if rs.Len() != 1 || !hasReportAt(rs, 9, "using xa->ptr after free!") {
		t.Errorf("row 4: got %v", rs.Reports)
	}
}

// Row 5: actual xa, formal xf, state on *xa.
func TestT2Row5Deref(t *testing.T) {
	src := `
void kfree(void *p);
void callee(int **xf) {
    kfree(*xf);
}
int caller(int **xa) {
    callee(xa);
    return **xa;
}`
	_, rs := runChecker(t, freeChecker, map[string]string{"t2.c": src}, DefaultOptions())
	if rs.Len() != 1 || !hasReportAt(rs, 8, "using *xa after free!") {
		t.Errorf("row 5: got %v", rs.Reports)
	}
}

// Renamed argument: actual q, formal h — the state must follow the
// renaming in both directions.
func TestRefineRenames(t *testing.T) {
	src := `
void kfree(void *p);
void helper(int *h) {
    kfree(h);
}
int caller(int *q) {
    helper(q);
    return *q;
}`
	_, rs := runChecker(t, freeChecker, map[string]string{"r.c": src}, DefaultOptions())
	if rs.Len() != 1 || !hasReportAt(rs, 8, "using q after free!") {
		t.Errorf("renamed arg: got %v", rs.Reports)
	}
}

// Caller locals not passed to the callee are saved at the boundary and
// restored after (§6.1) — the callee's identically-named local must
// not interfere.
func TestLocalsSavedAcrossCall(t *testing.T) {
	src := `
void kfree(void *p);
void unrelated(void) {
    int *q;
    q = 0;
}
int caller(int *q) {
    kfree(q);
    unrelated();
    return *q;
}`
	_, rs := runChecker(t, freeChecker, map[string]string{"s.c": src}, DefaultOptions())
	if rs.Len() != 1 || !hasReportAt(rs, 10, "using q after free!") {
		t.Errorf("saved local: got %v", rs.Reports)
	}
}

// Unit tests for the substitution machinery itself.
func parseE(t *testing.T, s string) cc.Expr {
	t.Helper()
	e, err := cc.ParseExprString(s)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestSubstExpr(t *testing.T) {
	cases := []struct{ obj, from, to, want string }{
		{"xa", "xa", "xf", "xf"},
		{"xa.field", "xa", "xf", "xf.field"},
		{"xa->field", "xa", "xf", "xf->field"},
		{"*xa", "xa", "xf", "*xf"},
		{"a[i]", "i", "j", "a[j]"},
		{"*(p->q)", "p->q", "r", "*r"},
		{"x + y", "z", "w", "x + y"}, // no change
		{"sizeof(xa)", "xa", "xf", "sizeof xf"},
		{"f(*xf)", "xf", "&xa", "f(xa)"}, // *(&xa) cancels under any node
	}
	for _, c := range cases {
		got, changed := substExpr(parseE(t, c.obj), parseE(t, c.from), parseE(t, c.to))
		if cc.ExprString(got) != c.want {
			t.Errorf("subst %s[%s->%s] = %s, want %s", c.obj, c.from, c.to, cc.ExprString(got), c.want)
		}
		if (c.obj != c.want) != changed {
			t.Errorf("subst %s: changed=%v inconsistent", c.obj, changed)
		}
	}
}

func TestSimplifyDerefAddr(t *testing.T) {
	// *(&x) and &(*x) cancel.
	e, _ := substExpr(parseE(t, "*xf"), parseE(t, "xf"), parseE(t, "&xa"))
	if got := cc.ExprString(simplifyDeep(e)); got != "xa" {
		t.Errorf("*(&xa) should simplify to xa, got %s", got)
	}
}

func TestRefineObjTable2(t *testing.T) {
	// Direct unit coverage of the five Table 2 rows, over the pairs
	// prog.Build records for the call site.
	p := buildProg(t, map[string]string{"h.c": `
void f(int *xf, int *yf) {}
void caller(int *xa, int ya) { f(xa, &ya); }`})
	maps := p.Lookup("caller").Sites[0].Args
	cases := []struct{ obj, want string }{
		{"xa", "xf"},
		{"xa.field", "xf.field"},
		{"xa->field", "xf->field"},
		{"*xa", "*xf"},
		{"ya", "*yf"}, // &ya actual: state on ya -> state on *yf
	}
	for _, c := range cases {
		got, ok := refineObj(parseE(t, c.obj), maps)
		if !ok || cc.ExprString(got) != c.want {
			t.Errorf("refine %s = %s (ok=%v), want %s", c.obj, cc.ExprString(got), ok, c.want)
		}
		// Restore round trip.
		back := restoreObj(got, maps)
		if cc.ExprString(back) != c.obj {
			t.Errorf("restore(refine(%s)) = %s", c.obj, cc.ExprString(back))
		}
	}
}

// TestRefinedCopiesReadUntyped: an object refine, restore or the
// *(&x) cancellation builds is a new expression, so it reads as untyped
// (cc.TypeOf), while the body node it was built from keeps the type
// CheckFunc wrote into it.
func TestRefinedCopiesReadUntyped(t *testing.T) {
	p := buildProg(t, map[string]string{"h.c": `
struct s { int f; };
void g(struct s *sf) {}
int caller(struct s *sa) { g(sa); return (*&sa)->f + sa->f; }`})
	fn := p.Lookup("caller")
	var ret *cc.BinaryExpr
	for _, b := range fn.Graph.Blocks {
		if x, ok := b.ReturnX.(*cc.BinaryExpr); ok {
			ret = x
		}
	}
	if ret == nil {
		t.Fatal("no returned sum")
	}
	cancelled, field := ret.X, ret.Y
	maps := fn.Sites[0].Args
	refined, ok := refineObj(field, maps)
	if !ok {
		t.Fatalf("%s did not refine", cc.ExprString(field))
	}
	restored := restoreObj(refined, maps)
	simplified := simplifyDeep(cancelled)
	for _, c := range []struct {
		e    cc.Expr
		want string
	}{{field, "int"}, {cancelled, "int"}, {refined, "<unknown>"}, {restored, "<unknown>"}, {simplified, "<unknown>"}} {
		if got := cc.TypeOf(c.e).String(); got != c.want {
			t.Errorf("%s reads %s, want %s", cc.ExprString(c.e), got, c.want)
		}
	}
	if cc.ExprString(restored) != "sa->f" || cc.ExprString(simplified) != "sa->f" {
		t.Errorf("restored %s, simplified %s; want sa->f both", cc.ExprString(restored), cc.ExprString(simplified))
	}
}

// TestRefineSkipsUnnamedParam: a parameter without a name (legal C23,
// and what people write for an unused one) holds no state, and must not
// end the pairing of the parameters after it.
func TestRefineSkipsUnnamedParam(t *testing.T) {
	src := `void kfree(void *p);
void rel(int, int *p) { kfree(p); }
int caller(int *q) {
    rel(0, q);
    return *q;
}`
	_, rs := runChecker(t, freeChecker, map[string]string{"u.c": src}, DefaultOptions())
	if rs.Len() != 1 || !hasReportAt(rs, 5, "using q after free!") {
		t.Errorf("unnamed first parameter: got %v", rs.Reports)
	}
}

func TestFig5Summaries(t *testing.T) {
	// Experiment F5: block and suffix summaries for the Figure 2
	// example, in the paper's notation.
	en, _ := runChecker(t, freeChecker, map[string]string{"fig2.c": fig2}, DefaultOptions())

	// B2 in the paper: the "kfree(p);" block of contrived_caller.
	// Block summary: (start,v:p->unknown) --> (start,v:p->freed)
	b2 := blockFor(en, "contrived_caller", "kfree(p)")
	if b2 == nil {
		t.Fatal("kfree(p) block not found")
	}
	bs := en.BlockSummaryString("contrived_caller", b2)
	if !strings.Contains(bs, "(start,v:p->unknown) --> (start,v:p->freed)") {
		t.Errorf("B2 block summary = %q", bs)
	}
	ss := en.SuffixSummaryString("contrived_caller", b2)
	if !strings.Contains(ss, "(start,v:p->unknown) --> (start,v:p->freed)") {
		t.Errorf("B2 suffix summary = %q", ss)
	}

	// B7 in the paper: the "kfree(w); q = p; p = 0;" region. Our CFG
	// gives each statement its own block; the kfree(w) block must have
	// the add edge for w, and the p = 0 block the kill edge
	// (start,v:p->freed) --> (start,v:p->stop).
	bw := blockFor(en, "contrived", "kfree(w)")
	if bw == nil {
		t.Fatal("kfree(w) block not found")
	}
	if bs := en.BlockSummaryString("contrived", bw); !strings.Contains(bs, "(start,v:w->unknown) --> (start,v:w->freed)") {
		t.Errorf("kfree(w) block summary = %q", bs)
	}
	bp := blockFor(en, "contrived", "p = 0")
	if bp == nil {
		t.Fatal("p = 0 block not found")
	}
	if bs := en.BlockSummaryString("contrived", bp); !strings.Contains(bs, "(start,v:p->freed) --> (start,v:p->stop)") {
		t.Errorf("p = 0 block summary = %q", bs)
	}

	// Figure 5 caption: "none of the suffix summaries record any
	// information about q because q is a local variable".
	for _, b := range en.Prog.Lookup("contrived").Graph.Blocks {
		if ss := en.SuffixSummaryString("contrived", b); strings.Contains(ss, "v:q->") {
			t.Errorf("suffix summary of B%d mentions local q: %q", b.ID, ss)
		}
	}

	// "the suffix summary intentionally omits edges that end in a
	// tuple with the value stop".
	for _, fname := range []string{"contrived", "contrived_caller"} {
		for _, b := range en.Prog.Lookup(fname).Graph.Blocks {
			if ss := en.SuffixSummaryString(fname, b); strings.Contains(ss, "->stop)") {
				t.Errorf("%s B%d suffix has stop edge: %q", fname, b.ID, ss)
			}
		}
	}

	// The function summary of contrived (= entry block's suffix): the
	// w add edge must be visible to callers.
	entry := en.Prog.Lookup("contrived").Graph.Entry
	fsum := en.SuffixSummaryString("contrived", entry)
	if !strings.Contains(fsum, "(start,v:w->unknown) --> (start,v:w->freed)") {
		t.Errorf("contrived function summary missing w add edge: %q", fsum)
	}
	if !strings.Contains(fsum, "(start,v:p->freed) --> (start,v:p->freed)") {
		t.Errorf("contrived function summary missing p identity edge (false path): %q", fsum)
	}
}

// TestRelaxIdempotent: re-running the same analysis adds no new edges
// (F6 fixpoint property).
func TestRelaxIdempotent(t *testing.T) {
	p := buildProg(t, map[string]string{"fig2.c": fig2})
	c, err := parseChecker(freeChecker)
	if err != nil {
		t.Fatal(err)
	}
	en := NewEngine(p, c, DefaultOptions())
	en.RunContext(context.Background())
	count := func() int {
		total := 0
		for _, fn := range p.All {
			fi := en.funcInfo(fn)
			for _, b := range fn.Graph.Blocks {
				bi := fi.info(b)
				total += bi.trans.len() + bi.adds.len() + bi.sfxTrans.len() + bi.sfxAdds.len()
			}
		}
		return total
	}
	first := count()
	en.RunContext(context.Background())
	if second := count(); second != first {
		t.Errorf("summary edges grew on re-run: %d -> %d", first, second)
	}
}

// blockFor finds a block of the named function by the prefix of its
// comment (Figure 5 style assertions).
func blockFor(en *Engine, fnName, commentPrefix string) *cfg.Block {
	fn := en.Prog.Lookup(fnName)
	if fn == nil {
		return nil
	}
	for _, b := range fn.Graph.Blocks {
		if strings.HasPrefix(b.Comment(), commentPrefix) {
			return b
		}
	}
	return nil
}
