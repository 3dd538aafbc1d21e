package cc

import (
	"strings"
	"testing"
)

func mustParse(t *testing.T, src string) *File {
	t.Helper()
	f, err := ParseFile("test.c", src)
	if err != nil {
		t.Fatalf("parse error: %v", err)
	}
	return f
}

func mustExpr(t *testing.T, src string) Expr {
	t.Helper()
	e, err := ParseExprString(src)
	if err != nil {
		t.Fatalf("parse expr %q: %v", src, err)
	}
	return e
}

func TestParseSimpleFunction(t *testing.T) {
	f := mustParse(t, `
int add(int a, int b) {
    return a + b;
}`)
	funcs := f.Funcs()
	if len(funcs) != 1 {
		t.Fatalf("got %d funcs", len(funcs))
	}
	fd := funcs[0]
	if fd.Name != "add" {
		t.Errorf("name = %q", fd.Name)
	}
	if len(fd.Params) != 2 || fd.Params[0].Name != "a" || fd.Params[1].Name != "b" {
		t.Errorf("params = %+v", fd.Params)
	}
	if fd.Result.String() != "int" {
		t.Errorf("result = %s", fd.Result)
	}
	if len(fd.Body.List) != 1 {
		t.Errorf("body stmts = %d", len(fd.Body.List))
	}
}

func TestParsePointerDeclarations(t *testing.T) {
	f := mustParse(t, `
int *p;
char **q;
int a[10];
int *b[5];
int (*fp)(int, char *);
`)
	types := map[string]string{}
	for _, d := range f.Decls {
		if vd, ok := d.(*VarDecl); ok {
			types[vd.Name] = vd.Type.String()
		}
	}
	want := map[string]string{
		"p":  "int *",
		"q":  "char * *",
		"a":  "int [10]",
		"b":  "int * [5]",
		"fp": "int (int, char *) *",
	}
	for name, wt := range want {
		if types[name] != wt {
			t.Errorf("%s: got %q, want %q", name, types[name], wt)
		}
	}
}

func TestParseStructAndTypedef(t *testing.T) {
	f := mustParse(t, `
struct list {
    int val;
    struct list *next;
};
typedef struct list list_t;
list_t *head;
`)
	var head *VarDecl
	for _, d := range f.Decls {
		if vd, ok := d.(*VarDecl); ok && vd.Name == "head" {
			head = vd
		}
	}
	if head == nil {
		t.Fatal("head not found")
	}
	u := head.Type.Underlying()
	if u.Kind != TypePointer {
		t.Fatalf("head type = %s", head.Type)
	}
	rec := u.Elem.Underlying()
	if rec.Kind != TypeStruct || rec.Tag != "list" {
		t.Fatalf("pointee = %s", u.Elem)
	}
	if len(rec.Fields) != 2 || rec.Fields[0].Name != "val" || rec.Fields[1].Name != "next" {
		t.Errorf("fields = %+v", rec.Fields)
	}
	// Recursive reference resolved to the same record.
	nextT := rec.Fields[1].Type.Underlying()
	if nextT.Kind != TypePointer || nextT.Elem.Underlying() != rec {
		t.Error("recursive struct pointer not tied back to definition")
	}
}

func TestParseEnum(t *testing.T) {
	f := mustParse(t, `
enum color { RED, GREEN = 5, BLUE };
enum color c;
int x[BLUE];
`)
	var en *EnumDecl
	for _, d := range f.Decls {
		if e, ok := d.(*EnumDecl); ok {
			en = e
		}
	}
	if en == nil {
		t.Fatal("enum decl missing")
	}
	vals := map[string]int64{}
	for _, ec := range en.Type.Enums {
		vals[ec.Name] = ec.Value
	}
	if vals["RED"] != 0 || vals["GREEN"] != 5 || vals["BLUE"] != 6 {
		t.Errorf("enum values = %v", vals)
	}
	// Enum constant used as array bound.
	for _, d := range f.Decls {
		if vd, ok := d.(*VarDecl); ok && vd.Name == "x" {
			if vd.Type.Underlying().ArrayLen != 6 {
				t.Errorf("x array len = %d, want 6", vd.Type.Underlying().ArrayLen)
			}
		}
	}
}

func TestParseAllStatements(t *testing.T) {
	f := mustParse(t, `
int g(int);
int f(int n) {
    int i, sum = 0;
    for (i = 0; i < n; i++) {
        if (i % 2)
            continue;
        else
            sum += i;
    }
    while (sum > 100)
        sum /= 2;
    do { sum--; } while (sum > 50);
    switch (n) {
    case 0:
        sum = 1;
        break;
    case 1:
    default:
        sum = g(sum);
    }
    if (sum < 0) goto out;
    return sum;
out:
    return -1;
}`)
	if len(f.Funcs()) != 1 {
		t.Fatalf("funcs = %d", len(f.Funcs()))
	}
}

func TestParseExprForms(t *testing.T) {
	cases := []string{
		"a + b * c",
		"a = b = c",
		"a ? b : c ? d : e",
		"f(a, b, g(c))",
		"a[i][j]",
		"s.x->y.z",
		"*p++",
		"(*fp)(1, 2)",
		"&a[5]",
		"!x && y || z",
		"a << 2 | b >> 3",
		"sizeof x",
		"-x - -y",
		"x, y, z",
	}
	for _, src := range cases {
		if _, err := ParseExprString(src); err != nil {
			t.Errorf("%q: %v", src, err)
		}
	}
}

func TestParsePrecedence(t *testing.T) {
	e := mustExpr(t, "a + b * c")
	be, ok := e.(*BinaryExpr)
	if !ok || be.Op != TokPlus {
		t.Fatalf("top = %T", e)
	}
	if inner, ok := be.Y.(*BinaryExpr); !ok || inner.Op != TokStar {
		t.Errorf("rhs = %s", ExprString(be.Y))
	}

	e2 := mustExpr(t, "(a + b) * c")
	be2, ok := e2.(*BinaryExpr)
	if !ok || be2.Op != TokStar {
		t.Fatalf("parenthesized: top = %T (%s)", e2, ExprString(e2))
	}
}

func TestParensFolded(t *testing.T) {
	a := mustExpr(t, "kfree(p)")
	b := mustExpr(t, "kfree( ( p ) )")
	if !EqualExpr(a, b) {
		t.Errorf("parens should not affect AST equality: %s vs %s", ExprString(a), ExprString(b))
	}
}

func TestParseCastVsParen(t *testing.T) {
	f := mustParse(t, `
typedef unsigned long size_t;
int f(void *v, int x) {
    char *c = (char *)v;
    size_t n = (size_t)x;
    int y = (x) + 1;
    return y;
}`)
	fd := f.Funcs()[0]
	ds := fd.Body.List[0].(*DeclStmt)
	if _, ok := ds.Decls[0].Init.(*CastExpr); !ok {
		t.Errorf("(char*)v should be a cast, got %T", ds.Decls[0].Init)
	}
	ds2 := fd.Body.List[1].(*DeclStmt)
	if _, ok := ds2.Decls[0].Init.(*CastExpr); !ok {
		t.Errorf("(size_t)x should be a cast, got %T", ds2.Decls[0].Init)
	}
	ds3 := fd.Body.List[2].(*DeclStmt)
	if _, ok := ds3.Decls[0].Init.(*BinaryExpr); !ok {
		t.Errorf("(x)+1 should be binary, got %T", ds3.Decls[0].Init)
	}
}

func TestParseFig2Code(t *testing.T) {
	// The exact example from Figure 2 of the paper.
	f := mustParse(t, `
void kfree(void *p);
int contrived(int *p, int *w, int x) {
    int *q;

    if(x)
    {
        kfree(w);
        q = p;
        p = 0;
    }
    if(!x)
        return *w;
    return *q;
}
int contrived_caller(int *w, int x, int *p) {
    kfree(p);
    contrived(p, w, x);
    return *w;
}`)
	funcs := f.Funcs()
	if len(funcs) != 2 {
		t.Fatalf("funcs = %d, want 2", len(funcs))
	}
	if funcs[0].Name != "contrived" || funcs[1].Name != "contrived_caller" {
		t.Errorf("func names: %s, %s", funcs[0].Name, funcs[1].Name)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"int f( {",
		"int x = ;",
		"struct { int",
		"int f(void) { if }",
		"int f(void) { return 1 }",
	}
	for _, src := range bad {
		if _, err := ParseFile("bad.c", src); err == nil {
			t.Errorf("%q: expected error", src)
		}
	}
}

func TestConstEval(t *testing.T) {
	cases := []struct {
		src  string
		want int64
	}{
		{"1 + 2 * 3", 7},
		{"(1 + 2) * 3", 9},
		{"10 / 3", 3},
		{"10 % 3", 1},
		{"1 << 4", 16},
		{"~0 & 0xFF", 255},
		{"1 ? 42 : 7", 42},
		{"0 ? 42 : 7", 7},
		{"-5 + +3", -2},
		{"!0", 1},
		{"3 > 2", 1},
		{"'A'", 65},
		{"'\\n'", 10},
		{"'\\033'", 27},
		{"'\\x1b'", 27},
		{"'\\a'", 7},
		{"'\\?'", '?'},
		{"'\\377'", -1}, // char is signed
	}
	for _, c := range cases {
		e := mustExpr(t, c.src)
		v, ok := ConstEval(e)
		if !ok {
			t.Errorf("%q: not const", c.src)
			continue
		}
		if v != c.want {
			t.Errorf("%q = %d, want %d", c.src, v, c.want)
		}
	}
	// Non-constant cases.
	for _, src := range []string{"x + 1", "f(2)", "1 / 0", "'ab'", "'\\400'", "'\\0123'", "'\\x'", "'\\q'"} {
		if _, ok := ConstEval(mustExpr(t, src)); ok {
			t.Errorf("%q: should not be const", src)
		}
	}
}

func TestParseVariadicPrototype(t *testing.T) {
	f := mustParse(t, `int printf(const char *fmt, ...);`)
	fd, ok := f.Decls[0].(*FuncDecl)
	if !ok || !fd.Variadic {
		t.Fatalf("decl = %+v", f.Decls[0])
	}
}

func TestParseGlobalWithInit(t *testing.T) {
	f := mustParse(t, `int table[3] = {1, 2, 3}; int x = 5;`)
	vd := f.Decls[0].(*VarDecl)
	il, ok := vd.Init.(*InitList)
	if !ok || len(il.List) != 3 {
		t.Fatalf("init = %v", vd.Init)
	}
}

func TestExprStringRoundTrip(t *testing.T) {
	cases := []string{
		"a + b * c",
		"(a + b) * c",
		"f(x, y + 1)",
		"*p",
		"p->next->val",
		"a[i + 1]",
		"x = y = 0",
		"a ? b : c",
		"- -x",
		"!(a && b)",
		"q = p",
	}
	for _, src := range cases {
		e1 := mustExpr(t, src)
		printed := ExprString(e1)
		e2, err := ParseExprString(printed)
		if err != nil {
			t.Errorf("%q -> %q: reparse failed: %v", src, printed, err)
			continue
		}
		if !EqualExpr(e1, e2) {
			t.Errorf("%q -> %q: ASTs differ after round trip", src, printed)
		}
	}
}

func TestExecOrderAssignment(t *testing.T) {
	// RHS before LHS before the assignment itself (§5).
	e := mustExpr(t, "q = p")
	order := ExecOrder(e, nil)
	var names []string
	for _, pt := range order {
		switch x := pt.(type) {
		case *Ident:
			names = append(names, x.Name)
		case *AssignExpr:
			names = append(names, "=")
		}
	}
	if strings.Join(names, " ") != "p q =" {
		t.Errorf("exec order = %v, want [p q =]", names)
	}
}

func TestExecOrderCall(t *testing.T) {
	// Arguments before the call (§5).
	e := mustExpr(t, "f(g(a), b)")
	order := ExecOrder(e, nil)
	idx := map[string]int{}
	for i, pt := range order {
		idx[ExprString(pt)] = i
	}
	if !(idx["a"] < idx["g(a)"] && idx["g(a)"] < idx["f(g(a), b)"] && idx["b"] < idx["f(g(a), b)"]) {
		t.Errorf("bad exec order: %v", idx)
	}
}

func TestSubExprOf(t *testing.T) {
	e := mustExpr(t, "a[i] + f(j)")
	needle := mustExpr(t, "a[i]")
	if !SubExprOf(needle, e) {
		t.Error("a[i] should be a subexpr")
	}
	if SubExprOf(mustExpr(t, "a[j]"), e) {
		t.Error("a[j] should not be a subexpr")
	}
}

func TestRewrite(t *testing.T) {
	e := mustExpr(t, "a[i] + f(i, j) * sizeof(i)")
	// Every i becomes k; nothing else is copied.
	toK := func(x Expr) Expr {
		if id, ok := x.(*Ident); ok && id.Name == "i" {
			return &Ident{P: id.P, Name: "k"}
		}
		return nil
	}
	out := Rewrite(e, toK)
	if got, want := ExprString(out), "a[k] + f(k, j) * sizeof k"; got != want {
		t.Fatalf("Rewrite = %s, want %s", got, want)
	}
	if ExprString(e) != "a[i] + f(i, j) * sizeof i" {
		t.Error("Rewrite modified its input")
	}
	call := out.(*BinaryExpr).Y.(*BinaryExpr).X.(*CallExpr)
	orig := e.(*BinaryExpr).Y.(*BinaryExpr).X.(*CallExpr)
	if call.Fun != orig.Fun || call.Args[1] != orig.Args[1] {
		t.Error("unchanged subtrees must be shared, not copied")
	}
	// A rewrite that replaces nothing returns its input.
	if Rewrite(e, func(Expr) Expr { return nil }) != e {
		t.Error("an empty rewrite must return e itself")
	}
	// A replaced node is not descended: f sees a[i] but not its i.
	saw := 0
	out = Rewrite(e, func(x Expr) Expr {
		if id, ok := x.(*Ident); ok && id.Name == "i" {
			saw++
		}
		if _, ok := x.(*IndexExpr); ok {
			return mustExpr(t, "b")
		}
		return nil
	})
	if got, want := ExprString(out), "b + f(i, j) * sizeof i"; got != want || saw != 2 {
		t.Errorf("Rewrite = %s (saw i %d times), want %s (2)", got, saw, want)
	}
}

func TestSameType(t *testing.T) {
	f := mustParse(t, `
typedef int myint;
myint a;
int b;
int *p;
char *c;
unsigned int u;
`)
	types := map[string]*Type{}
	for _, d := range f.Decls {
		if vd, ok := d.(*VarDecl); ok {
			types[vd.Name] = vd.Type
		}
	}
	if !SameType(types["a"], types["b"]) {
		t.Error("typedef int should equal int")
	}
	if SameType(types["p"], types["c"]) {
		t.Error("int* should differ from char*")
	}
	if SameType(types["b"], types["u"]) {
		t.Error("int should differ from unsigned int")
	}
}

// TestBlockScopesShadowAndRestore: a typedef, tag or enum constant
// declared in a block shadows the outer one until the block closes,
// and the outer one is back after it.
func TestBlockScopesShadowAndRestore(t *testing.T) {
	f := mustParse(t, `
typedef int T;
struct s { int i; };
enum { N = 3 };
void f(void) {
	{
		typedef char *T;
		struct s { char *c; };
		enum { N = 7 };
		T in;
		struct s sin;
		int ain[N];
	}
	T out;
	struct s sout;
	int aout[N];
	out = (T)1;
}
`)
	types := map[string]*Type{}
	var walk func(s Stmt)
	walk = func(s Stmt) {
		switch s := s.(type) {
		case *CompoundStmt:
			for _, c := range s.List {
				walk(c)
			}
		case *DeclStmt:
			for _, d := range s.Decls {
				types[d.Name] = d.Type
			}
		}
	}
	walk(f.Funcs()[0].Body)
	if !types["in"].IsPointer() || types["out"].Underlying().Kind != TypeInt || types["out"].IsPointer() {
		t.Errorf("typedef T: in %s, out %s; want char * inside the block, int after it", types["in"], types["out"])
	}
	if got := types["sin"].Underlying().Fields[0].Name; got != "c" {
		t.Errorf("struct s inside the block has field %q, want c", got)
	}
	if got := types["sout"].Underlying().Fields[0].Name; got != "i" {
		t.Errorf("struct s after the block has field %q, want i", got)
	}
	if types["ain"].ArrayLen != 7 || types["aout"].ArrayLen != 3 {
		t.Errorf("enum N: array lengths %d inside, %d after; want 7, 3", types["ain"].ArrayLen, types["aout"].ArrayLen)
	}
}
