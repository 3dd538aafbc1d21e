package cc

import "testing"

// findExpr locates the first expression in fd's body whose printed
// form equals want.
func findExpr(fd *FuncDecl, want string) Expr {
	var found Expr
	var walkStmt func(Stmt)
	visit := func(e Expr) bool {
		if found == nil && ExprString(e) == want {
			found = e
		}
		return found == nil
	}
	walkStmt = func(s Stmt) {
		switch s := s.(type) {
		case *ExprStmt:
			WalkExpr(s.X, visit)
		case *DeclStmt:
			for _, d := range s.Decls {
				if d.Init != nil {
					WalkExpr(d.Init, visit)
				}
			}
		case *CompoundStmt:
			for _, c := range s.List {
				walkStmt(c)
			}
		case *IfStmt:
			WalkExpr(s.Cond, visit)
			walkStmt(s.Then)
			if s.Else != nil {
				walkStmt(s.Else)
			}
		case *WhileStmt:
			WalkExpr(s.Cond, visit)
			walkStmt(s.Body)
		case *ForStmt:
			if s.Init != nil {
				walkStmt(s.Init)
			}
			if s.Cond != nil {
				WalkExpr(s.Cond, visit)
			}
			if s.Post != nil {
				WalkExpr(s.Post, visit)
			}
			walkStmt(s.Body)
		case *ReturnStmt:
			if s.X != nil {
				WalkExpr(s.X, visit)
			}
		}
	}
	walkStmt(fd.Body)
	return found
}

func typeOfIn(t *testing.T, src, expr string) string {
	t.Helper()
	f := mustParse(t, src)
	env := NewTypeEnv(f)
	funcs := f.Funcs()
	fd := funcs[len(funcs)-1]
	env.CheckFunc(fd)
	e := findExpr(fd, expr)
	if e == nil {
		t.Fatalf("expression %q not found", expr)
	}
	return TypeOf(e).String()
}

func TestTypeOfLocals(t *testing.T) {
	src := `
int f(int *p, char c) {
    int x;
    x = *p;
    return x + c;
}`
	if got := typeOfIn(t, src, "*p"); got != "int" {
		t.Errorf("*p : %s", got)
	}
	if got := typeOfIn(t, src, "x + c"); got != "int" {
		t.Errorf("x + c : %s", got)
	}
}

func TestTypeOfGlobalsAndCalls(t *testing.T) {
	src := `
char *strdup(const char *s);
struct point { int x; int y; };
struct point origin;
int g(struct point *pp) {
    char *n = strdup("hi");
    return origin.x + pp->y;
}`
	if got := typeOfIn(t, src, `strdup("hi")`); got != "char *" {
		t.Errorf("call type: %s", got)
	}
	if got := typeOfIn(t, src, "origin.x"); got != "int" {
		t.Errorf("field type: %s", got)
	}
	if got := typeOfIn(t, src, "pp->y"); got != "int" {
		t.Errorf("arrow field type: %s", got)
	}
}

func TestTypeOfPointerOps(t *testing.T) {
	src := `
int f(int *p, int i) {
    int *q = p + i;
    int v = p[i];
    int **pp = &p;
    return v;
}`
	if got := typeOfIn(t, src, "p + i"); got != "int *" {
		t.Errorf("pointer arith: %s", got)
	}
	if got := typeOfIn(t, src, "p[i]"); got != "int" {
		t.Errorf("index: %s", got)
	}
	if got := typeOfIn(t, src, "&p"); got != "int * *" {
		t.Errorf("addr-of: %s", got)
	}
}

func TestTypeOfUnknownIdent(t *testing.T) {
	// Unknown names type as unknown and do not stop checking.
	src := `
int f(void) {
    return mystery + 1;
}`
	if got := typeOfIn(t, src, "mystery"); got != "<unknown>" {
		t.Errorf("unknown ident: %s", got)
	}
	if got := typeOfIn(t, src, "mystery + 1"); got != "int" {
		t.Errorf("unknown + int should adopt int: %s", got)
	}
}

func TestTypeOfComparisons(t *testing.T) {
	src := `
int f(char *a, char *b) {
    return a == b;
}`
	if got := typeOfIn(t, src, "a == b"); got != "int" {
		t.Errorf("comparison: %s", got)
	}
}

func TestTypeOfCastAndSizeof(t *testing.T) {
	src := `
int f(void *v) {
    long n = sizeof(int);
    char *c = (char *)v;
    return 0;
}`
	if got := typeOfIn(t, src, "(char *)v"); got != "char *" {
		t.Errorf("cast: %s", got)
	}
	if got := typeOfIn(t, src, "sizeof(int)"); got != "unsigned long" {
		t.Errorf("sizeof: %s", got)
	}
}

func TestTypeMapScopes(t *testing.T) {
	// The inner x shadows the outer; types must follow scope.
	src := `
int f(void) {
    char x;
    {
        int *x;
        return *x;
    }
}`
	if got := typeOfIn(t, src, "*x"); got != "int" {
		t.Errorf("shadowed deref: %s", got)
	}
}

func TestIsPointerAndScalar(t *testing.T) {
	f := mustParse(t, `
typedef int *intp;
intp a;
int b[4];
double d;
enum e { E1 } ev;
struct s { int x; } sv;
`)
	types := map[string]*Type{}
	for _, decl := range f.Decls {
		if vd, ok := decl.(*VarDecl); ok {
			types[vd.Name] = vd.Type
		}
	}
	if !types["a"].IsPointer() {
		t.Error("typedef'd pointer should be pointer")
	}
	if !types["b"].IsPointer() {
		t.Error("array should decay to pointer for matching")
	}
	if types["d"].IsPointer() || !types["d"].IsScalar() {
		t.Error("double: scalar, not pointer")
	}
	if !types["ev"].IsScalar() {
		t.Error("enum is scalar")
	}
	if types["sv"].IsScalar() || types["sv"].IsPointer() {
		t.Error("struct is neither scalar nor pointer")
	}
}
