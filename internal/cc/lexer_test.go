package cc

import (
	"strings"
	"testing"
	"testing/quick"
)

func kinds(toks []Token) []TokKind {
	out := make([]TokKind, len(toks))
	for i, t := range toks {
		out[i] = t.Kind
	}
	return out
}

func TestLexBasicTokens(t *testing.T) {
	toks, err := LexAll("t.c", "int x = 42;")
	if err != nil {
		t.Fatal(err)
	}
	want := []TokKind{TokInt, TokIdent, TokAssign, TokIntLit, TokSemi, TokEOF}
	got := kinds(toks)
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("token %d: got %s, want %s", i, got[i], want[i])
		}
	}
}

func TestLexOperators(t *testing.T) {
	src := "+ - * / % ++ -- += -= *= /= %= &= |= ^= <<= >>= << >> <= >= < > == != && || & | ^ ~ ! -> . ... ? :"
	wantKinds := []TokKind{
		TokPlus, TokMinus, TokStar, TokSlash, TokPercent,
		TokInc, TokDec,
		TokAddAssign, TokSubAssign, TokMulAssign, TokDivAssign, TokModAssign,
		TokAndAssign, TokOrAssign, TokXorAssign, TokShlAssign, TokShrAssign,
		TokShl, TokShr, TokLe, TokGe, TokLt, TokGt, TokEq, TokNe,
		TokAndAnd, TokOrOr, TokAmp, TokPipe, TokCaret, TokTilde, TokNot,
		TokArrow, TokDot, TokEllipsis, TokQuestion, TokColon, TokEOF,
	}
	toks, err := LexAll("t.c", src)
	if err != nil {
		t.Fatal(err)
	}
	got := kinds(toks)
	if len(got) != len(wantKinds) {
		t.Fatalf("token count: got %d (%v), want %d", len(got), got, len(wantKinds))
	}
	for i := range wantKinds {
		if got[i] != wantKinds[i] {
			t.Errorf("token %d: got %s, want %s", i, got[i], wantKinds[i])
		}
	}
}

func TestLexKeywordsVsIdents(t *testing.T) {
	toks, err := LexAll("t.c", "while whilex if ifx returnvalue return")
	if err != nil {
		t.Fatal(err)
	}
	want := []TokKind{TokWhile, TokIdent, TokIf, TokIdent, TokIdent, TokReturn, TokEOF}
	got := kinds(toks)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("token %d: got %s, want %s", i, got[i], want[i])
		}
	}
}

func TestLexComments(t *testing.T) {
	src := `int a; // line comment with * and /* inside
/* block
   comment */ int b; /**/ int c;`
	toks, err := LexAll("t.c", src)
	if err != nil {
		t.Fatal(err)
	}
	var idents []string
	for _, tk := range toks {
		if tk.Kind == TokIdent {
			idents = append(idents, tk.Text)
		}
	}
	if strings.Join(idents, ",") != "a,b,c" {
		t.Errorf("idents = %v, want a,b,c", idents)
	}
}

func TestLexUnterminatedComment(t *testing.T) {
	if _, err := LexAll("t.c", "int a; /* oops"); err == nil {
		t.Error("want error for unterminated block comment")
	}
}

func TestLexPreprocessorSkipped(t *testing.T) {
	src := "#include <stdio.h>\n#define MAX 10\nint x;\n# if 0\nint y;\n"
	toks, err := LexAll("t.c", src)
	if err != nil {
		t.Fatal(err)
	}
	var idents []string
	for _, tk := range toks {
		if tk.Kind == TokIdent {
			idents = append(idents, tk.Text)
		}
	}
	// The "# if 0" line is skipped entirely, but "int y;" on the next
	// line is real code.
	if strings.Join(idents, ",") != "x,y" {
		t.Errorf("idents = %v, want [x y]", idents)
	}
}

func TestLexPreprocessorContinuation(t *testing.T) {
	src := "#define M(a) \\\n  ((a)+1)\nint z;"
	toks, err := LexAll("t.c", src)
	if err != nil {
		t.Fatal(err)
	}
	got := kinds(toks)
	want := []TokKind{TokInt, TokIdent, TokSemi, TokEOF}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
}

func TestLexNumbers(t *testing.T) {
	cases := []struct {
		src  string
		kind TokKind
	}{
		{"0", TokIntLit},
		{"42", TokIntLit},
		{"0x1F", TokIntLit},
		{"0755", TokIntLit},
		{"10u", TokIntLit},
		{"10UL", TokIntLit},
		{"100ll", TokIntLit},
		{"1.5", TokFloatLit},
		{".5", TokFloatLit},
		{"1e10", TokFloatLit},
		{"1.5e-3", TokFloatLit},
		{"2.0f", TokFloatLit},
	}
	for _, c := range cases {
		toks, err := LexAll("t.c", c.src)
		if err != nil {
			t.Errorf("%q: %v", c.src, err)
			continue
		}
		if toks[0].Kind != c.kind {
			t.Errorf("%q: got %s, want %s", c.src, toks[0].Kind, c.kind)
		}
		if len(toks) != 2 {
			t.Errorf("%q: lexed as %d tokens, want 1", c.src, len(toks)-1)
		}
	}
}

func TestLexStringsAndChars(t *testing.T) {
	toks, err := LexAll("t.c", `"hello \"world\"" 'a' '\n' '\''`)
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].Kind != TokStringLit || toks[0].Text != `hello \"world\"` {
		t.Errorf("string: got %v", toks[0])
	}
	if toks[1].Kind != TokCharLit || toks[1].Text != "a" {
		t.Errorf("char: got %v", toks[1])
	}
	if toks[2].Kind != TokCharLit || toks[2].Text != `\n` {
		t.Errorf("escaped char: got %v", toks[2])
	}
	if toks[3].Kind != TokCharLit || toks[3].Text != `\'` {
		t.Errorf("quote char: got %v", toks[3])
	}
}

func TestLexPositions(t *testing.T) {
	toks, err := LexAll("f.c", "int\n  x;")
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].Line != 1 || toks[0].Col != 1 {
		t.Errorf("int at %d:%d, want 1:1", toks[0].Line, toks[0].Col)
	}
	if toks[1].Line != 2 || toks[1].Col != 3 {
		t.Errorf("x at %d:%d, want 2:3", toks[1].Line, toks[1].Col)
	}
	// A token leaves its file to the parser, which stamps every node.
	f, err := ParseFile("f.c", "int\n  x;")
	if err != nil {
		t.Fatal(err)
	}
	if got := f.Decls[0].Pos(); got != (Pos{File: "f.c", Line: 2, Col: 3}) {
		t.Errorf("x declared at %v, want f.c:2:3", got)
	}
}

// TestLexDollarRejectedInPlainC: '$' is no C token (metal lexes its own
// holes).
func TestLexDollarRejectedInPlainC(t *testing.T) {
	if _, err := LexAll("t.c", "int $x;"); err == nil {
		t.Error("want error for $ in C")
	}
}

// TestLexMidLineHash: '#' opens a directive only as the first non-blank
// character of its line; anywhere else it is an error at its position,
// not a directive that swallows the rest of the line.
func TestLexMidLineHash(t *testing.T) {
	toks, err := LexAll("p.c", "int a;\n  \t# define X 1 \\\n  continued\nb;")
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, tk := range toks {
		got = append(got, tk.String())
	}
	if want := `int identifier "a" ; identifier "b" ; EOF`; strings.Join(got, " ") != want {
		t.Errorf("directive: got %s, want %s", strings.Join(got, " "), want)
	}
	_, err = LexAll("p.c", "a = b # c d\ne;")
	le, ok := err.(*LexError)
	if !ok {
		t.Fatalf("mid-line #: err = %v, want a *LexError", err)
	}
	if le.Pos != (Pos{File: "p.c", Line: 1, Col: 7}) {
		t.Errorf("mid-line # at %v, want p.c:1:7", le.Pos)
	}
}

// Property: lexing never panics and always terminates with EOF for
// arbitrary printable input (errors are fine).
func TestLexNeverPanics(t *testing.T) {
	f := func(s string) bool {
		toks, err := LexAll("q.c", s)
		if err != nil {
			return true
		}
		return len(toks) > 0 && toks[len(toks)-1].Kind == TokEOF
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: the token count of s ++ " " ++ t equals count(s)+count(t)
// when both lex cleanly and neither ends inside a construct — checked
// on identifier/number alphabets where concatenation with a space
// cannot join tokens.
func TestLexConcatProperty(t *testing.T) {
	clean := func(s string) string {
		var sb strings.Builder
		for _, r := range s {
			if r >= 'a' && r <= 'z' || r >= '0' && r <= '9' {
				sb.WriteRune(r)
			}
		}
		return sb.String()
	}
	f := func(a, b string) bool {
		a, b = clean(a), clean(b)
		ta, err1 := LexAll("a", a)
		tb, err2 := LexAll("b", b)
		tc, err3 := LexAll("c", a+" "+b)
		if err1 != nil || err2 != nil || err3 != nil {
			return false
		}
		return len(tc) == len(ta)+len(tb)-1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
