package cc

import (
	"slices"
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
		"void f(void) { L:; L:; }",
		"void f(int x) { L: if (x) { L: x--; } }",
		// C11 6.7.2p2 allows none of these type-keyword multisets.
		"long char c;",
		"void int x;",
		"unsigned float y;",
		"long long long z;",
		"struct s { int a; } int w;",
		// A definition has no typedef storage (6.9.1p4).
		"typedef int f(void) { return 0; }",
	}
	for _, src := range bad {
		if _, err := ParseFile("bad.c", src); err == nil {
			t.Errorf("%q: expected error", src)
		}
	}
	// A label's scope is its function.
	if _, err := ParseFile("ok.c", "void f(void) { L:; } void g(void) { L:; goto L; }"); err != nil {
		t.Errorf("one label per function: %v", err)
	}
}

// TestTypeSpecifierSets parses every multiset of type keywords C11
// 6.7.2p2 allows, in its canonical order and reversed, and checks the
// type it declares: every declaration of one keyword set shares the
// package's Type for it.
func TestTypeSpecifierSets(t *testing.T) {
	type want struct {
		kind     TypeKind
		size     int
		unsigned bool
		shared   *Type
	}
	sets := map[string]want{
		"void": {TypeVoid, 0, false, TypeVoidV},
		"char": {TypeInt, 1, false, TypeCharV}, "signed char": {TypeInt, 1, false, TypeCharV},
		"unsigned char": {TypeInt, 1, true, TypeUCharV},
		"float":         {TypeFloat, 4, false, TypeFloatV},
		"double":        {TypeFloat, 8, false, TypeDoubleV}, "long double": {TypeFloat, 8, false, TypeDoubleV},
	}
	for _, s := range []string{"short", "signed short", "short int", "signed short int"} {
		sets[s] = want{TypeInt, 2, false, TypeShortV}
	}
	for _, s := range []string{"unsigned short", "unsigned short int"} {
		sets[s] = want{TypeInt, 2, true, typeUShortV}
	}
	for _, s := range []string{"int", "signed", "signed int"} {
		sets[s] = want{TypeInt, 4, false, TypeIntV}
	}
	for _, s := range []string{"unsigned", "unsigned int"} {
		sets[s] = want{TypeInt, 4, true, TypeUIntV}
	}
	for _, s := range []string{"long", "signed long", "long int", "signed long int",
		"long long", "signed long long", "long long int", "signed long long int"} {
		sets[s] = want{TypeInt, 8, false, TypeLongV}
	}
	for _, s := range []string{"unsigned long", "unsigned long int", "unsigned long long", "unsigned long long int"} {
		sets[s] = want{TypeInt, 8, true, TypeULongV}
	}
	if len(typeSpecifiers) != len(sets) {
		t.Errorf("the table holds %d multisets, C11 allows %d", len(typeSpecifiers), len(sets))
	}
	for set, w := range sets {
		words := strings.Fields(set)
		slices.Reverse(words)
		for _, spec := range []string{set, strings.Join(words, " ")} {
			decl := spec + " x;"
			f, err := ParseFile("spec.c", decl+"\n"+decl)
			if err != nil {
				t.Errorf("%q: %v", spec, err)
				continue
			}
			a, b := f.Decls[0].(*VarDecl).Type, f.Decls[1].(*VarDecl).Type
			if a.Kind != w.kind || a.Size != w.size || a.Unsigned != w.unsigned {
				t.Errorf("%q declares %+v, want kind %v size %d unsigned %v", spec, a, w.kind, w.size, w.unsigned)
			}
			if a != w.shared || b != w.shared {
				t.Errorf("%q: not the shared %+v", spec, w.shared)
			}
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

// TestDeclaratorLists pins the init-declarator list file scope and
// block scope share (initDeclarators).
func TestDeclaratorLists(t *testing.T) {
	f := mustParse(t, "int a, *b = 0, f(void);")
	if len(f.Decls) != 3 {
		t.Fatalf("int a, *b = 0, f(void): %d decls, want 3", len(f.Decls))
	}
	a, aOK := f.Decls[0].(*VarDecl)
	b, bOK := f.Decls[1].(*VarDecl)
	fn, fnOK := f.Decls[2].(*FuncDecl)
	if !aOK || a.Name != "a" || a.Init != nil || !bOK || b.Name != "b" || b.Init == nil || !fnOK || fn.Name != "f" || fn.Body != nil {
		t.Errorf("int a, *b = 0, f(void): got %T %T %T, want VarDecl a, VarDecl b with its initializer, FuncDecl f", f.Decls[0], f.Decls[1], f.Decls[2])
	}

	// A definition ends its declaration, and only the first declarator
	// can be one.
	f = mustParse(t, "int g(void) { return 0; } int h;")
	if g, ok := f.Decls[0].(*FuncDecl); len(f.Decls) != 2 || !ok || g.Body == nil {
		t.Errorf("int g(void) {...} int h: got %d decls, want the definition of g then h", len(f.Decls))
	}
	if _, err := ParseFile("test.c", "int a, f(void) {}"); err == nil {
		t.Error("int a, f(void) {}: parsed, want an error")
	}

	// In a block, a typedef declares its name and emits no decl, and a
	// prototype is a VarDecl of function type.
	body := mustParse(t, "void k(void) { typedef int T; T x; int g(int); }").Funcs()[0].Body.List
	if td := body[0].(*DeclStmt); len(td.Decls) != 0 {
		t.Errorf("block typedef emitted %d decls, want none", len(td.Decls))
	}
	if x := body[1].(*DeclStmt).Decls[0]; x.Type.Kind != TypeNamed || x.Type.Name != "T" {
		t.Errorf("T x: x has type %s, want the typedef T", x.Type)
	}
	if g := body[2].(*DeclStmt).Decls; len(g) != 1 || g[0].Name != "g" || g[0].Type.Kind != TypeFunc {
		t.Errorf("local int g(int): got %d decls, want one VarDecl g of function type", len(g))
	}

	// A function that returns a function pointer: the parenthesized
	// declarator keeps its inner declarator's function-ness, and a
	// parenthesized pointer declarator is a variable.
	f = mustParse(t, "int g(int); void (*signal(int, void (*)(int)))(int); int (*pick(void))(int) { return g; } int (*fp)(int);")
	if len(f.Decls) != 4 {
		t.Fatalf("function-pointer results: %d decls, want 4", len(f.Decls))
	}
	for i, want := range []struct {
		name    string
		params  int
		defined bool
	}{{"signal", 2, false}, {"pick", 0, true}} {
		fd, ok := f.Decls[i+1].(*FuncDecl)
		if !ok || fd.Name != want.name || len(fd.Params) != want.params || (fd.Body != nil) != want.defined {
			t.Fatalf("decl %d: got %T, want FuncDecl %s with %d params, defined %v", i+1, f.Decls[i+1], want.name, want.params, want.defined)
		}
		if r := fd.Result; r.Kind != TypePointer || r.Elem.Kind != TypeFunc || len(r.Elem.Params) != 1 {
			t.Errorf("%s returns %s, want a pointer to a function of one parameter", fd.Name, r)
		}
	}
	if fp, ok := f.Decls[3].(*VarDecl); !ok || fp.Name != "fp" || fp.Type.Kind != TypePointer {
		t.Errorf("int (*fp)(int): got %T, want VarDecl fp of pointer type", f.Decls[3])
	}
}
