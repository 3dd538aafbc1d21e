package cc

import (
	"fmt"
	"testing"
)

// printCases covers every expression kind, with the spacing and
// parenthesisation the canonical text must keep.
func printCases(t *testing.T) []struct {
	e    Expr
	want string
} {
	t.Helper()
	parse := func(src string) Expr {
		e, err := ParseExprString(src)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		return e
	}
	x := &Ident{Name: "x"}
	return []struct {
		e    Expr
		want string
	}{
		{parse("x"), "x"},
		{parse("42"), "42"},
		{parse("1.5"), "1.5"},
		{parse("'c'"), "'c'"},
		{parse(`"s%s"`), `"s%s"`},
		{parse("!x"), "!x"},
		{parse("x++"), "x++"},
		{parse("--x"), "--x"},
		{&UnaryExpr{Op: TokMinus, X: &UnaryExpr{Op: TokMinus, X: x}}, "- -x"},
		{&UnaryExpr{Op: TokPlus, X: &UnaryExpr{Op: TokPlus, X: x}}, "+ +x"},
		{&UnaryExpr{Op: TokAmp, X: &UnaryExpr{Op: TokAmp, X: x}}, "& &x"},
		{&UnaryExpr{Op: TokMinus, X: &UnaryExpr{Op: TokStar, X: x}}, "-*x"},
		{parse("(a + b) * c"), "(a + b) * c"},
		{parse("a - (b - c)"), "a - (b - c)"},
		{parse("a - b - c"), "a - b - c"},
		{parse("-(a + b)"), "-(a + b)"},
		{parse("(*p)++"), "(*p)++"},
		{parse("x = y = z"), "x = y = z"},
		{parse("(x = y) + 1"), "(x = y) + 1"},
		{parse("a ? b : c ? d : e"), "a ? b : c ? d : e"},
		{parse("(a ? b : c) ? d : e"), "(a ? b : c) ? d : e"},
		{parse("f(a, (b, c))"), "f(a, (b, c))"},
		{parse("a[i + 1]"), "a[i + 1]"},
		{parse("s->f.g"), "s->f.g"},
		{parse("(*p).f"), "(*p).f"},
		{parse("(int *)p"), "(int *)p"},
		{parse("(unsigned char)(a + b)"), "(unsigned char)(a + b)"},
		{parse("sizeof(int)"), "sizeof(int)"},
		{parse("sizeof x"), "sizeof x"},
		{parse("sizeof (a + b)"), "sizeof (a + b)"},
		{&CommaExpr{List: []Expr{x, parse("y = 1")}}, "x, y = 1"},
		{&InitList{List: []Expr{parse("1"), parse("a, b")}}, "{1, (a, b)}"},
		{&HoleExpr{Name: "v"}, "$v"},
		{&HoleArgs{Name: "args"}, "$args..."},
		{&CallExpr{Fun: &HoleExpr{Name: "fn"}, Args: []Expr{&HoleArgs{Name: "args"}}}, "$fn($args...)"},
	}
}

// TestAppendExprIsExprString: the object keys the engine probes from a
// buffer are the canonical text, kind by kind.
func TestAppendExprIsExprString(t *testing.T) {
	for _, c := range printCases(t) {
		s := ExprString(c.e)
		if s != c.want {
			t.Errorf("ExprString = %q, want %q", s, c.want)
		}
		if got := string(AppendExpr(nil, c.e)); got != s {
			t.Errorf("AppendExpr = %q, ExprString = %q", got, s)
		}
		if got := string(AppendExpr([]byte("k:"), c.e)); got != "k:"+s {
			t.Errorf("AppendExpr after a prefix = %q, want %q", got, "k:"+s)
		}
	}
	if got := AppendExpr([]byte("k"), nil); string(got) != "k" {
		t.Errorf("AppendExpr of nil = %q, want the buffer unchanged", got)
	}
}

// TestAppendExprAllocs: appending into a buffer that has grown allocates
// nothing; only a type's text (a cast, sizeof(type)) goes through fmt.
func TestAppendExprAllocs(t *testing.T) {
	buf := make([]byte, 0, 256)
	for _, c := range printCases(t) {
		typed := false
		WalkExpr(c.e, func(x Expr) bool {
			switch x := x.(type) {
			case *CastExpr:
				typed = true
			case *SizeofExpr:
				typed = typed || x.Type != nil
			}
			return !typed
		})
		if typed {
			continue
		}
		if n := testing.AllocsPerRun(20, func() { buf = AppendExpr(buf[:0], c.e) }); n != 0 {
			t.Errorf("AppendExpr(%s) into a warmed buffer: %.0f allocations, want 0", c.want, n)
		}
	}
}

// TestAppendPos: a position appends as it always printed, file or none,
// and into a warmed buffer without allocating.
func TestAppendPos(t *testing.T) {
	buf := make([]byte, 0, 64)
	for _, p := range []Pos{{}, {Line: 3, Col: 14}, {File: "fs/ext4/inode.c", Line: 1204, Col: 9}} {
		want := fmt.Sprintf("%s:%d:%d", p.File, p.Line, p.Col)
		if p.File == "" {
			want = fmt.Sprintf("%d:%d", p.Line, p.Col)
		}
		if got := string(AppendPos(buf[:0], p)); got != want || p.String() != want {
			t.Errorf("AppendPos %q, String %q, want %q", got, p.String(), want)
		}
		if n := testing.AllocsPerRun(20, func() { buf = AppendPos(buf[:0], p) }); n != 0 {
			t.Errorf("AppendPos(%s) into a warmed buffer: %.0f allocations, want 0", want, n)
		}
	}
}
