package pattern

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cc"
	"repro/internal/cfg"
)

// ctxFor builds a match context over the last function in src, with
// the program point set to the first expression whose printed form is
// point.
func ctxFor(t *testing.T, src, point string) *Ctx {
	t.Helper()
	f, err := cc.ParseFile("t.c", src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	env := cc.NewTypeEnv(f)
	funcs := f.Funcs()
	fd := funcs[len(funcs)-1]
	env.CheckFunc(fd)

	var target cc.Expr
	var findStmt func(cc.Stmt)
	visit := func(e cc.Expr) bool {
		if target == nil && cc.ExprString(e) == point {
			target = e
		}
		return target == nil
	}
	findStmt = func(s cc.Stmt) {
		switch s := s.(type) {
		case *cc.ExprStmt:
			cc.WalkExpr(s.X, visit)
		case *cc.CompoundStmt:
			for _, c := range s.List {
				findStmt(c)
			}
		case *cc.IfStmt:
			cc.WalkExpr(s.Cond, visit)
			findStmt(s.Then)
			if s.Else != nil {
				findStmt(s.Else)
			}
		case *cc.ReturnStmt:
			if s.X != nil {
				cc.WalkExpr(s.X, visit)
			}
		case *cc.DeclStmt:
			for _, d := range s.Decls {
				if d.Init != nil {
					cc.WalkExpr(d.Init, visit)
				}
			}
		}
	}
	findStmt(fd.Body)
	if target == nil {
		t.Fatalf("point %q not found in %s", point, fd.Name)
	}
	return &Ctx{Point: target, Callouts: Builtins(), FuncName: fd.Name}
}

var ptrHoles = map[string]*Hole{"v": {Name: "v", Meta: MetaAnyPtr}}

const freeSrc = `
void kfree(void *p);
int use(int *p, int x) {
    kfree(p);
    return *p + x;
}`

func TestBaseMatchCall(t *testing.T) {
	p, err := CompileBase("kfree(v)", ptrHoles)
	if err != nil {
		t.Fatal(err)
	}
	ctx := ctxFor(t, freeSrc, "kfree(p)")
	bnd, ok := p.Match(ctx, Bindings{})
	if !ok {
		t.Fatal("no match")
	}
	if v, _ := bnd.Get("v"); v.String() != "p" {
		t.Errorf("v bound to %q", v)
	}
}

func TestBaseMatchDeref(t *testing.T) {
	p, err := CompileBase("*v", ptrHoles)
	if err != nil {
		t.Fatal(err)
	}
	ctx := ctxFor(t, freeSrc, "*p")
	if _, ok := p.Match(ctx, Bindings{}); !ok {
		t.Fatal("*v should match *p")
	}
	// But not a non-deref point.
	ctx2 := ctxFor(t, freeSrc, "x")
	if _, ok := p.Match(ctx2, Bindings{}); ok {
		t.Fatal("*v must not match a plain identifier")
	}
}

func TestHoleTypeConstraint(t *testing.T) {
	// any_pointer must not match a scalar.
	src := `
void kfree(void *p);
int f(int n) {
    kfree(n);
    return 0;
}`
	p, _ := CompileBase("kfree(v)", ptrHoles)
	ctx := ctxFor(t, src, "kfree(n)")
	if _, ok := p.Match(ctx, Bindings{}); ok {
		t.Error("any_pointer hole matched an int")
	}

	scalarHoles := map[string]*Hole{"s": {Name: "s", Meta: MetaAnyScalar}}
	p2, _ := CompileBase("kfree(s)", scalarHoles)
	if _, ok := p2.Match(ctx, Bindings{}); !ok {
		t.Error("any_scalar hole should match an int")
	}
}

func TestConcreteTypeHole(t *testing.T) {
	src := `
void take(int x);
int f(int a, char c) {
    take(a);
    take(c);
    return 0;
}`
	holes := map[string]*Hole{"n": {Name: "n", CType: cc.TypeIntV}}
	p, _ := CompileBase("take(n)", holes)
	if _, ok := p.Match(ctxFor(t, src, "take(a)"), Bindings{}); !ok {
		t.Error("int hole should match int arg")
	}
	if _, ok := p.Match(ctxFor(t, src, "take(c)"), Bindings{}); ok {
		t.Error("int hole should not match char arg")
	}
}

func TestRepeatedHoleEquality(t *testing.T) {
	// {foo(x,x)} matches foo(0,0) and foo(a[i],a[i]) but not foo(0,1) (§4).
	src := `
void foo(int a, int b);
int f(int a[], int i) {
    foo(0, 0);
    foo(a[i], a[i]);
    foo(0, 1);
    return 0;
}`
	holes := map[string]*Hole{"x": {Name: "x", Meta: MetaAnyExpr}}
	p, _ := CompileBase("foo(x,x)", holes)
	if _, ok := p.Match(ctxFor(t, src, "foo(0, 0)"), Bindings{}); !ok {
		t.Error("foo(0,0) should match")
	}
	if _, ok := p.Match(ctxFor(t, src, "foo(a[i], a[i])"), Bindings{}); !ok {
		t.Error("foo(a[i],a[i]) should match")
	}
	if _, ok := p.Match(ctxFor(t, src, "foo(0, 1)"), Bindings{}); ok {
		t.Error("foo(0,1) must not match")
	}
}

func TestAnyFnCallAndAnyArguments(t *testing.T) {
	// { fn(args) } && ${ mc_is_call_to(fn, "gets") } — the example
	// from §4.
	src := `
char *gets(char *s);
int puts(const char *s);
int f(char *buf) {
    gets(buf);
    puts(buf);
    return 0;
}`
	holes := map[string]*Hole{
		"fn":   {Name: "fn", Meta: MetaAnyFnCall},
		"args": {Name: "args", Meta: MetaAnyArgs},
	}
	base, err := CompileBase("fn(args)", holes)
	if err != nil {
		t.Fatal(err)
	}
	// fn(args): fn is any_fn_call so the *whole call* must bind to fn.
	// The template is a call whose callee is the fn hole; since C has
	// no higher-order syntax here, metal treats "fn(args)" with an
	// any_fn_call hole as matching any call, binding fn to the call
	// itself. Implement via OR with a plain call template: here we
	// verify our chosen semantics — fn binds the callee expression.
	co, err := CompileCallout(` mc_is_call_to(fn, "gets") `)
	if err != nil {
		t.Fatal(err)
	}
	p := &And{X: base, Y: co}
	_ = p
	ctx := ctxFor(t, src, "gets(buf)")
	bnd, ok := base.Match(ctx, Bindings{})
	if !ok {
		t.Fatal("fn(args) should match gets(buf)")
	}
	if args, _ := bnd.Get("args"); args.String() != "buf" {
		t.Errorf("args bound to %q", args)
	}
}

func TestCalloutIsCallTo(t *testing.T) {
	src := `
char *gets(char *s);
int puts(const char *s);
int f(char *buf) {
    gets(buf);
    puts(buf);
    return 0;
}`
	holes := map[string]*Hole{
		"fn":   {Name: "fn", Meta: MetaAnyExpr},
		"args": {Name: "args", Meta: MetaAnyArgs},
	}
	base, _ := CompileBase("fn", holes)
	co, _ := CompileCallout(`mc_is_call_to(fn, "gets")`)
	p := &And{X: base, Y: co}

	if _, ok := p.Match(ctxFor(t, src, "gets(buf)"), Bindings{}); !ok {
		t.Error("should match gets call")
	}
	if _, ok := p.Match(ctxFor(t, src, "puts(buf)"), Bindings{}); ok {
		t.Error("should not match puts call")
	}
}

func TestDegenerateCallouts(t *testing.T) {
	ctx := ctxFor(t, freeSrc, "x")
	zero, _ := CompileCallout("0")
	one, _ := CompileCallout("1")
	if _, ok := zero.Match(ctx, Bindings{}); ok {
		t.Error("${0} must match nothing")
	}
	if _, ok := one.Match(ctx, Bindings{}); !ok {
		t.Error("${1} must match everything")
	}
}

func TestOrPattern(t *testing.T) {
	src := `
void lock(int *l); void unlock(int *l);
int f(int *m) {
    lock(m);
    unlock(m);
    return 0;
}`
	holes := map[string]*Hole{"l": {Name: "l", Meta: MetaAnyPtr}}
	p1, _ := CompileBase("lock(l)", holes)
	p2, _ := CompileBase("unlock(l)", holes)
	or := &Or{X: p1, Y: p2}
	if _, ok := or.Match(ctxFor(t, src, "lock(m)"), Bindings{}); !ok {
		t.Error("or should match lock")
	}
	if _, ok := or.Match(ctxFor(t, src, "unlock(m)"), Bindings{}); !ok {
		t.Error("or should match unlock")
	}
}

func TestAndBindingsFlow(t *testing.T) {
	// Bindings established on the left side are visible to the right.
	src := `
void foo(int *a, int *b);
int f(int *p, int *q) {
    foo(p, p);
    foo(p, q);
    return 0;
}`
	holes := map[string]*Hole{
		"a": {Name: "a", Meta: MetaAnyPtr},
		"b": {Name: "b", Meta: MetaAnyPtr},
	}
	base, _ := CompileBase("foo(a, b)", holes)
	same, _ := CompileCallout("mc_same(a, b)")
	reg := Builtins()
	reg["mc_same"] = func(ctx *Ctx, args []CalloutArg) bool {
		return args[0].Bound && args[1].Bound &&
			cc.EqualExpr(args[0].Binding.Expr, args[1].Binding.Expr)
	}
	p := &And{X: base, Y: same}
	ctx := ctxFor(t, src, "foo(p, p)")
	ctx.Callouts = reg
	if _, ok := p.Match(ctx, Bindings{}); !ok {
		t.Error("foo(p,p) should satisfy mc_same")
	}
	ctx2 := ctxFor(t, src, "foo(p, q)")
	ctx2.Callouts = reg
	if _, ok := p.Match(ctx2, Bindings{}); ok {
		t.Error("foo(p,q) should fail mc_same")
	}
}

func TestEndOfPath(t *testing.T) {
	ctx := ctxFor(t, freeSrc, "x")
	var eop EndOfPath
	if _, ok := eop.Match(ctx, Bindings{}); ok {
		t.Error("end-of-path should not match mid-path")
	}
	ctx.EndOfPath = true
	if _, ok := eop.Match(ctx, Bindings{}); !ok {
		t.Error("end-of-path should match at path end")
	}
}

func TestMatchIgnoresLexicalArtifacts(t *testing.T) {
	// "Because we match ASTs, spaces and other lexical artifacts do
	// not interfere with matching" (§4): rand() with odd spacing.
	src := `
int rand(void);
int f(void) {
    return rand (   ) ;
}`
	p, _ := CompileBase("rand()", nil)
	if _, ok := p.Match(ctxFor(t, src, "rand()"), Bindings{}); !ok {
		t.Error("rand() should match despite spacing")
	}
}

func TestCompileErrors(t *testing.T) {
	if _, err := CompileBase("f(", nil); err == nil {
		t.Error("want error for bad base pattern")
	}
	if _, err := CompileCallout("x +"); err == nil {
		t.Error("want error for bad callout")
	}
	if _, err := CompileCallout("just_an_ident"); err == nil {
		t.Error("want error for non-call callout")
	}
	if _, err := CompileCallout("f(a+b)"); err == nil {
		t.Error("want error for complex callout arg")
	}
}

// TestCalloutArgForms: a callout takes what an action takes, a negative
// integer included, and reaches the registered function with it; a
// nested call stays an action-only argument.
func TestCalloutArgForms(t *testing.T) {
	co, err := CompileCallout("mc_is_arg_count(fn, -1)")
	if err != nil {
		t.Fatal(err)
	}
	var got []CalloutArg
	ctx := ctxFor(t, freeSrc, "x")
	ctx.Callouts = Registry{"mc_is_arg_count": func(_ *Ctx, args []CalloutArg) bool {
		got = append(got, args...)
		return true
	}}
	if _, ok := co.Match(ctx, Bindings{}); !ok || len(got) != 2 {
		t.Fatalf("match %v, args %+v", ok, got)
	}
	if !got[0].Bound || got[0].Hole != "fn" {
		t.Errorf("first argument = %+v, want the hole fn", got[0])
	}
	if got[1].Int != -1 || !got[1].IsInt || got[1].Bound {
		t.Errorf("second argument = %+v, want Int: -1, IsInt: true", got[1])
	}
	if _, err := CompileCallout("mc_fn_marked(fn, mc_identifier(v))"); err == nil || !strings.Contains(err.Error(), "hole names or literals") {
		t.Errorf("a nested call argument compiled: err %v", err)
	}
}

func TestHolesOf(t *testing.T) {
	holes := map[string]*Hole{
		"v": {Name: "v", Meta: MetaAnyPtr},
		"w": {Name: "w", Meta: MetaAnyPtr},
	}
	p1, _ := CompileBase("memcpy(v, w)", holes)
	p2, _ := CompileBase("*v", holes)
	or := &Or{X: p1, Y: p2}
	hs := HolesOf(or)
	if !hs["v"] || !hs["w"] || len(hs) != 2 {
		t.Errorf("holes = %v", hs)
	}
}

func TestBuiltinCallouts(t *testing.T) {
	src := `
void f(char *s, int n);
int g(char *msg) {
    f("lit", 3);
    f(msg, 4);
    return 0;
}`
	holes := map[string]*Hole{
		"s": {Name: "s", Meta: MetaAnyExpr},
		"n": {Name: "n", Meta: MetaAnyExpr},
	}
	base, _ := CompileBase("f(s, n)", holes)

	isStr, _ := CompileCallout("mc_is_string_constant(s)")
	p := &And{X: base, Y: isStr}
	if _, ok := p.Match(ctxFor(t, src, `f("lit", 3)`), Bindings{}); !ok {
		t.Error("string constant callout should match literal")
	}
	if _, ok := p.Match(ctxFor(t, src, "f(msg, 4)"), Bindings{}); ok {
		t.Error("string constant callout should reject variable")
	}

	isConst, _ := CompileCallout("mc_is_constant(n)")
	p2 := &And{X: base, Y: isConst}
	if _, ok := p2.Match(ctxFor(t, src, "f(msg, 4)"), Bindings{}); !ok {
		t.Error("mc_is_constant should match 4")
	}

	inFn, _ := CompileCallout(`mc_in_function("g")`)
	p3 := &And{X: base, Y: inFn}
	if _, ok := p3.Match(ctxFor(t, src, "f(msg, 4)"), Bindings{}); !ok {
		t.Error("mc_in_function should match g")
	}
}

// TestHoleFreeMatchIsEqualExpr holds the matcher to the one structural
// comparison it runs through: a hole-free template leaves the hole hook
// nothing to handle, so a Base compiled from the text of a point of
// testdata/corpus matches exactly the points of its function that
// cc.EqualExpr finds equal to its template.
func TestHoleFreeMatchIsEqualExpr(t *testing.T) {
	paths, err := filepath.Glob("../../testdata/corpus/*.c")
	if err != nil || len(paths) == 0 {
		t.Fatalf("testdata/corpus: no files (%v)", err)
	}
	var pairs, matches int
	ctx := &Ctx{}
	for _, path := range paths {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		file, err := cc.ParseFile(path, string(src))
		if err != nil {
			t.Fatal(err)
		}
		for _, fd := range file.Funcs() {
			var points []cc.Expr
			for _, b := range cfg.Build(fd).Blocks {
				points = append(points, b.Points...)
			}
			for _, pt := range points {
				base, err := CompileBase(cc.ExprString(pt), nil)
				if err != nil {
					continue
				}
				tmpl, _ := base.Template()
				for _, other := range points {
					ctx.Point = other
					_, got := base.Match(ctx, nil)
					if want := cc.EqualExpr(tmpl, other); got != want {
						t.Errorf("%s: {%s} at %s: Match %v, EqualExpr %v", fd.Name, base.Src, cc.ExprString(other), got, want)
					}
					pairs++
					if got {
						matches++
					}
				}
			}
		}
	}
	if matches == 0 || matches == pairs {
		t.Fatalf("%d of %d pairs match: the oracle separates nothing", matches, pairs)
	}
	t.Logf("%d of %d pairs match", matches, pairs)
}
