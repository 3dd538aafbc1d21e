package cc

import (
	"strings"
	"testing"
)

func mustType(t *testing.T, src string) *Type {
	t.Helper()
	ty, err := ParseTypeString(src)
	if err != nil {
		t.Fatalf("type %q: %v", src, err)
	}
	return ty
}

func TestParseTypeString(t *testing.T) {
	cases := []struct{ src, want string }{
		{"int", "int"},
		{"unsigned char", "unsigned char"},
		{"short", "short"},
		{"unsigned long", "unsigned long"},
		{"float", "float"},
		{"double", "double"},
		{"void", "void"},
		{"int *", "int *"},
		{"char **", "char * *"},
		{"int [4]", "int [4]"},
		{"int (*)(int)", "int (int) *"},
		{"struct foo", "struct foo"},
		{"union bar *", "union bar *"},
		{"enum baz", "enum baz"},
	}
	for _, c := range cases {
		if got := mustType(t, c.src).String(); got != c.want {
			t.Errorf("%q -> %q, want %q", c.src, got, c.want)
		}
	}
	for _, bad := range []string{"", "int x", "notatype", "int ("} {
		if _, err := ParseTypeString(bad); err == nil {
			t.Errorf("%q should not parse as a type", bad)
		}
	}
}

func TestSameTypeMatrix(t *testing.T) {
	types := []string{"int", "unsigned int", "char", "long", "float", "double",
		"void", "int *", "char *", "int [3]", "struct s", "union u", "enum e"}
	for i, a := range types {
		for j, b := range types {
			ta, tb := mustType(t, a), mustType(t, b)
			if got := SameType(ta, tb); got != (i == j) {
				t.Errorf("SameType(%s, %s) = %v", a, b, got)
			}
		}
	}
	// Function types compare by signature.
	f1 := mustType(t, "int (int, char *)")
	f2 := mustType(t, "int (int, char *)")
	f3 := mustType(t, "int (int)")
	f4 := mustType(t, "void (int, char *)")
	if !SameType(f1, f2) || SameType(f1, f3) || SameType(f1, f4) {
		t.Error("function type equality wrong")
	}
	// Anonymous structs compare structurally.
	file, err := ParseFile("a.c", "struct { int x; } a; struct { int x; } b; struct { int y; } c;")
	if err != nil {
		t.Fatal(err)
	}
	var va, vb, vc *Type
	for _, d := range file.Decls {
		if vd, ok := d.(*VarDecl); ok {
			switch vd.Name {
			case "a":
				va = vd.Type
			case "b":
				vb = vd.Type
			case "c":
				vc = vd.Type
			}
		}
	}
	if !SameType(va, vb) {
		t.Error("structurally identical anonymous structs should match")
	}
	if SameType(va, vc) {
		t.Error("different anonymous structs must differ")
	}
}

func TestTypePredicates(t *testing.T) {
	var nilT *Type
	if !nilT.IsUnknown() {
		t.Error("nil type is unknown")
	}
	if nilT.Underlying().Kind != TypeUnknown {
		t.Error("nil underlying")
	}
	// Broken typedef chain.
	broken := &Type{Kind: TypeNamed, Name: "mystery"}
	if !broken.IsUnknown() {
		t.Error("typedef without definition is unknown")
	}
}

func TestSizeofEvaluation(t *testing.T) {
	src := `
struct pair { int a; int b; };
union mix { int i; double d; };
int s1[sizeof(struct pair)];
int s2[sizeof(union mix)];
int s3[sizeof(int *)];
int s4[sizeof(char [10])];
`
	f, err := ParseFile("s.c", src)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int64{"s1": 8, "s2": 8, "s3": 8, "s4": 10}
	for _, d := range f.Decls {
		if vd, ok := d.(*VarDecl); ok {
			if w, ok := want[vd.Name]; ok {
				if got := vd.Type.Underlying().ArrayLen; got != w {
					t.Errorf("%s: array len %d, want %d", vd.Name, got, w)
				}
			}
		}
	}
}

func TestEqualExprNegativeArms(t *testing.T) {
	pairs := [][2]string{
		{"x", "1"},
		{"1", "1.0"},
		{"'a'", "'b'"},
		{`"a"`, `"b"`},
		{"-x", "x"},
		{"x + y", "x - y"},
		{"x = 1", "x += 1"},
		{"a ? b : c", "a ? b : d"},
		{"f(1)", "f(1, 2)"},
		{"a[1]", "a[2]"},
		{"s.f", "s.g"},
		{"(char)x", "(int)x"},
		{"sizeof x", "sizeof y"},
		{"sizeof(int)", "sizeof x"},
		{"(a, b)", "(a, c)"},
	}
	for _, p := range pairs {
		a, err1 := ParseExprString(p[0])
		b, err2 := ParseExprString(p[1])
		if err1 != nil || err2 != nil {
			t.Fatalf("parse %v: %v %v", p, err1, err2)
		}
		if EqualExpr(a, b) {
			t.Errorf("EqualExpr(%s, %s) should be false", p[0], p[1])
		}
		if !EqualExpr(a, a) || !EqualExpr(b, b) {
			t.Errorf("EqualExpr reflexivity failed for %v", p)
		}
	}
	if !EqualExpr(nil, nil) {
		t.Error("nil == nil")
	}
	one, _ := ParseExprString("1")
	if EqualExpr(one, nil) || EqualExpr(nil, one) {
		t.Error("nil vs non-nil")
	}
}

func TestConstEvalMoreOperators(t *testing.T) {
	cases := []struct {
		src  string
		want int64
	}{
		{"7 & 3", 3},
		{"4 | 1", 5},
		{"5 ^ 1", 4},
		{"9 >> 1", 4},
		{"1 && 1", 1},
		{"1 && 0", 0},
		{"0 || 0", 0},
		{"0 || 2", 1},
		{"3 <= 3", 1},
		{"3 >= 4", 0},
		{"3 != 3", 0},
		{"+(8)", 8},
		{"(char)65", 65},
		{"'\\t'", 9},
		{"'\\r'", 13},
		{"'\\\\'", 92},
		{"'\\''", 39},
		{"'\\0'", 0},
	}
	for _, c := range cases {
		e, err := ParseExprString(c.src)
		if err != nil {
			t.Fatalf("%q: %v", c.src, err)
		}
		v, ok := ConstEval(e)
		if !ok || v != c.want {
			t.Errorf("%q = %d (%v), want %d", c.src, v, ok, c.want)
		}
	}
	// Non-constant and overflow-ish shift guards.
	for _, src := range []string{"1 << 99", "1 >> -1", "x ? 1 : 2", `"s"`} {
		e, err := ParseExprString(src)
		if err != nil {
			continue
		}
		if _, ok := ConstEval(e); ok {
			t.Errorf("%q should not be constant", src)
		}
	}
}

func TestStorageClassAndTokenStrings(t *testing.T) {
	if StorageStatic.String() != "static" || StorageNone.String() != "" ||
		StorageTypedef.String() != "typedef" {
		t.Error("storage class strings")
	}
	if TokShlAssign.String() != "<<=" || TokEOF.String() != "EOF" {
		t.Error("token kind strings")
	}
	tok := Token{Kind: TokIdent, Text: "abc"}
	if !strings.Contains(tok.String(), "abc") {
		t.Error("token String")
	}
	punct := Token{Kind: TokSemi}
	if punct.String() != ";" {
		t.Error("punct token String")
	}
	var p Pos
	if p.IsValid() {
		t.Error("zero pos should be invalid")
	}
	p2 := Pos{Line: 3, Col: 1}
	if !p2.IsValid() || p2.String() != "3:1" {
		t.Errorf("pos without file: %q", p2)
	}
}

func TestSignature(t *testing.T) {
	f, err := ParseFile("s.c", "long mix(int a, char *b, ...);")
	if err != nil {
		t.Fatal(err)
	}
	fd := f.Decls[0].(*FuncDecl)
	sig := fd.Signature()
	if sig.String() != "long (int, char *, ...)" {
		t.Errorf("signature = %s", sig)
	}
}

func TestErrorTypes(t *testing.T) {
	_, lexErr := LexAll("f.c", "@")
	if lexErr == nil || !strings.Contains(lexErr.Error(), "f.c:1:1") {
		t.Errorf("lex error = %v", lexErr)
	}
	_, parseErr := ParseFile("f.c", "int = 4;")
	if parseErr == nil || !strings.Contains(parseErr.Error(), "f.c:1") {
		t.Errorf("parse error = %v", parseErr)
	}
}

func TestArithResultPromotions(t *testing.T) {
	src := `
int f(char c, short s, int i, unsigned int u, long l, float fl, double d) {
    return 0;
}`
	f, err := ParseFile("a.c", src)
	if err != nil {
		t.Fatal(err)
	}
	env := NewTypeEnv(f)
	fd := f.Funcs()[0]
	_ = env.CheckFunc(fd)
	types := map[string]*Type{}
	for _, p := range fd.Params {
		types[p.Name] = p.Type
	}
	cases := []struct{ a, b, want string }{
		{"c", "i", "int"},
		{"i", "l", "long"},
		{"i", "u", "unsigned int"},
		{"i", "fl", "float"},
		{"fl", "d", "double"},
		{"s", "c", "short"},
	}
	for _, cse := range cases {
		got := arithResult(types[cse.a], types[cse.b]).String()
		if got != cse.want {
			t.Errorf("arith(%s, %s) = %s, want %s", cse.a, cse.b, got, cse.want)
		}
		rev := arithResult(types[cse.b], types[cse.a]).String()
		if rev != cse.want {
			t.Errorf("arith(%s, %s) = %s, want %s (symmetry)", cse.b, cse.a, rev, cse.want)
		}
	}
}

func TestFilePosString(t *testing.T) {
	p := Pos{File: "x.c", Line: 2, Col: 7}
	if p.String() != "x.c:2:7" {
		t.Errorf("pos = %q", p)
	}
}

func TestFuncsOnlyDefinitions(t *testing.T) {
	f, err := ParseFile("d.c", "int proto(int); int def(int x) { return x; }")
	if err != nil {
		t.Fatal(err)
	}
	funcs := f.Funcs()
	if len(funcs) != 1 || funcs[0].Name != "def" {
		t.Errorf("Funcs() = %v", funcs)
	}
}

func TestTypeStringEdgeCases(t *testing.T) {
	var nilT *Type
	if nilT.String() != "<nil>" {
		t.Error("nil type string")
	}
	anon := &Type{Kind: TypeStruct}
	if !strings.Contains(anon.String(), "anon") {
		t.Error("anonymous struct string")
	}
	anonU := &Type{Kind: TypeUnion}
	if !strings.Contains(anonU.String(), "anon") {
		t.Error("anonymous union string")
	}
	anonE := &Type{Kind: TypeEnum}
	if !strings.Contains(anonE.String(), "anon") {
		t.Error("anonymous enum string")
	}
	unk := &Type{Kind: TypeUnknown}
	if unk.String() != "<unknown>" {
		t.Error("unknown type string")
	}
	openArr := &Type{Kind: TypeArray, Elem: TypeIntV, ArrayLen: -1}
	if openArr.String() != "int []" {
		t.Errorf("open array = %q", openArr.String())
	}
}
