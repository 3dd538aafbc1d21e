package cc

import "fmt"

// Lexer converts C source text into a token stream. It strips // and
// /* */ comments and skips preprocessor directives (lines whose first
// non-blank character is '#'); the fixtures and generated workloads in
// this repository are preprocessed-free C. A '#' anywhere else on a
// line is a lexical error.
type Lexer struct {
	src  string
	file string
	off  int
	line int
	col  int
}

// NewLexer returns a lexer over src, attributing positions to file.
func NewLexer(file, src string) *Lexer {
	return &Lexer{src: src, file: file, line: 1, col: 1}
}

// LexError is a lexical error with position.
type LexError struct {
	Pos Pos
	Msg string
}

func (e *LexError) Error() string { return fmt.Sprintf("%s: %s", e.Pos, e.Msg) }

func (l *Lexer) errAt(line, col int, msg string) error {
	return &LexError{Pos: Pos{File: l.file, Line: line, Col: col}, Msg: msg}
}

func (l *Lexer) peek() byte {
	if l.off >= len(l.src) {
		return 0
	}
	return l.src[l.off]
}

func (l *Lexer) peek2() byte {
	if l.off+1 >= len(l.src) {
		return 0
	}
	return l.src[l.off+1]
}

func (l *Lexer) advance() byte {
	c := l.src[l.off]
	l.off++
	if c == '\n' {
		l.line++
		l.col = 1
	} else {
		l.col++
	}
	return c
}

func isSpace(c byte) bool {
	return c == ' ' || c == '\t' || c == '\r' || c == '\n' || c == '\v' || c == '\f'
}
func isDigit(c byte) bool  { return c >= '0' && c <= '9' }
func isAlpha(c byte) bool  { return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') }
func isAlnum(c byte) bool  { return isAlpha(c) || isDigit(c) }
func isHexDig(c byte) bool { return isDigit(c) || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F') }

// skipTrivia consumes whitespace, comments, and preprocessor lines.
func (l *Lexer) skipTrivia() error {
	for l.off < len(l.src) {
		c := l.peek()
		switch {
		case isSpace(c):
			l.advance()
		case c == '/' && l.peek2() == '/':
			for l.off < len(l.src) && l.peek() != '\n' {
				l.advance()
			}
		case c == '/' && l.peek2() == '*':
			line, col := l.line, l.col
			l.advance()
			l.advance()
			closed := false
			for l.off < len(l.src) {
				if l.peek() == '*' && l.peek2() == '/' {
					l.advance()
					l.advance()
					closed = true
					break
				}
				l.advance()
			}
			if !closed {
				return l.errAt(line, col, "unterminated block comment")
			}
		case c == '#' && l.atLineStart():
			// Preprocessor directive: skip to end of (possibly continued) line.
			for l.off < len(l.src) {
				if l.peek() == '\\' && l.peek2() == '\n' {
					l.advance()
					l.advance()
					continue
				}
				if l.peek() == '\n' {
					break
				}
				l.advance()
			}
		default:
			return nil
		}
	}
	return nil
}

// atLineStart reports whether only blanks precede the current byte on
// its line: where a '#' begins a directive.
func (l *Lexer) atLineStart() bool {
	for i := l.off - 1; i >= 0; i-- {
		switch l.src[i] {
		case '\n':
			return true
		case ' ', '\t', '\r', '\v', '\f':
		default:
			return false
		}
	}
	return true
}

// Next returns the next token.
func (l *Lexer) Next() (Token, error) {
	if err := l.skipTrivia(); err != nil {
		return Token{}, err
	}
	t := Token{Start: int32(l.off), End: int32(l.off), Line: int32(l.line), Col: int32(l.col)}
	if l.off >= len(l.src) {
		return t, nil // TokEOF
	}
	var err error
	c := l.peek()
	switch {
	case isAlpha(c):
		for l.off < len(l.src) && isAlnum(l.peek()) {
			l.advance()
		}
		t.End = int32(l.off)
		t.Kind = TokIdent
		if k, ok := keywords[l.src[t.Start:t.End]]; ok {
			t.Kind = k
		}
	case isDigit(c) || (c == '.' && isDigit(l.peek2())):
		t.Kind = l.lexNumber()
		t.End = int32(l.off)
	case c == '\'':
		t.Kind = TokCharLit
		t.Start, t.End, err = l.lexQuoted('\'', "character literal")
	case c == '"':
		t.Kind = TokStringLit
		t.Start, t.End, err = l.lexQuoted('"', "string literal")
	default:
		t.Kind, err = l.lexPunct()
	}
	if err != nil {
		return Token{}, err
	}
	return t, nil
}

// lexNumber scans a number starting at the current byte.
func (l *Lexer) lexNumber() TokKind {
	isFloat := false
	if l.peek() == '0' && (l.peek2() == 'x' || l.peek2() == 'X') {
		l.advance()
		l.advance()
		for l.off < len(l.src) && isHexDig(l.peek()) {
			l.advance()
		}
	} else {
		for l.off < len(l.src) && isDigit(l.peek()) {
			l.advance()
		}
		if l.peek() == '.' {
			isFloat = true
			l.advance()
			for l.off < len(l.src) && isDigit(l.peek()) {
				l.advance()
			}
		}
		if l.peek() == 'e' || l.peek() == 'E' {
			if isDigit(l.peek2()) || ((l.peek2() == '+' || l.peek2() == '-') && l.off+2 < len(l.src) && isDigit(l.src[l.off+2])) {
				isFloat = true
				l.advance()
				if l.peek() == '+' || l.peek() == '-' {
					l.advance()
				}
				for l.off < len(l.src) && isDigit(l.peek()) {
					l.advance()
				}
			}
		}
	}
	// Suffixes: u, l, ul, ll, f, etc.
	for l.off < len(l.src) {
		c := l.peek()
		if c == 'u' || c == 'U' || c == 'l' || c == 'L' {
			l.advance()
		} else if (c == 'f' || c == 'F') && isFloat {
			l.advance()
		} else {
			break
		}
	}
	if isFloat {
		return TokFloatLit
	}
	return TokIntLit
}

// lexQuoted scans a character or string literal opening at the current
// byte. Its text, whose span it returns, is the source between the
// quotes, escapes as written.
func (l *Lexer) lexQuoted(quote byte, what string) (start, end int32, err error) {
	line, col := l.line, l.col
	l.advance() // opening quote
	from := l.off
	for {
		if l.off >= len(l.src) {
			return 0, 0, l.errAt(line, col, "unterminated "+what)
		}
		c := l.advance()
		if c == quote {
			return int32(from), int32(l.off - 1), nil
		}
		if c == '\n' && quote == '"' {
			return 0, 0, l.errAt(line, col, "newline in "+what)
		}
		if c == '\\' {
			if l.off >= len(l.src) {
				return 0, 0, l.errAt(line, col, "unterminated "+what)
			}
			l.advance()
		}
	}
}

func (l *Lexer) lexPunct() (TokKind, error) {
	line, col := l.line, l.col
	c := l.advance()
	two := func(next byte, k2, k1 TokKind) TokKind {
		if l.peek() == next {
			l.advance()
			return k2
		}
		return k1
	}
	switch c {
	case '(':
		return TokLParen, nil
	case ')':
		return TokRParen, nil
	case '{':
		return TokLBrace, nil
	case '}':
		return TokRBrace, nil
	case '[':
		return TokLBracket, nil
	case ']':
		return TokRBracket, nil
	case ',':
		return TokComma, nil
	case ';':
		return TokSemi, nil
	case ':':
		return TokColon, nil
	case '?':
		return TokQuestion, nil
	case '~':
		return TokTilde, nil
	case '.':
		if l.peek() == '.' && l.peek2() == '.' {
			l.advance()
			l.advance()
			return TokEllipsis, nil
		}
		return TokDot, nil
	case '+':
		if l.peek() == '+' {
			l.advance()
			return TokInc, nil
		}
		return two('=', TokAddAssign, TokPlus), nil
	case '-':
		if l.peek() == '-' {
			l.advance()
			return TokDec, nil
		}
		if l.peek() == '>' {
			l.advance()
			return TokArrow, nil
		}
		return two('=', TokSubAssign, TokMinus), nil
	case '*':
		return two('=', TokMulAssign, TokStar), nil
	case '/':
		return two('=', TokDivAssign, TokSlash), nil
	case '%':
		return two('=', TokModAssign, TokPercent), nil
	case '&':
		if l.peek() == '&' {
			l.advance()
			return TokAndAnd, nil
		}
		return two('=', TokAndAssign, TokAmp), nil
	case '|':
		if l.peek() == '|' {
			l.advance()
			return TokOrOr, nil
		}
		return two('=', TokOrAssign, TokPipe), nil
	case '^':
		return two('=', TokXorAssign, TokCaret), nil
	case '!':
		return two('=', TokNe, TokNot), nil
	case '=':
		return two('=', TokEq, TokAssign), nil
	case '<':
		if l.peek() == '<' {
			l.advance()
			return two('=', TokShlAssign, TokShl), nil
		}
		return two('=', TokLe, TokLt), nil
	case '>':
		if l.peek() == '>' {
			l.advance()
			return two('=', TokShrAssign, TokShr), nil
		}
		return two('=', TokGe, TokGt), nil
	}
	return 0, l.errAt(line, col, fmt.Sprintf("unexpected character %q", string(c)))
}

// LexAll tokenizes the whole input, returning all tokens up to and
// including EOF. The slice is sized at one token per three source bytes
// plus EOF. That is a guess, not a bound: the benchmark's generated
// trees measure 3.24 source bytes a token (calls-L) and 3.27 (leaf-L),
// so there it is allocated once, and denser source grows it by append.
func LexAll(file, src string) ([]Token, error) {
	l := NewLexer(file, src)
	toks := make([]Token, 0, len(src)/3+2)
	for {
		t, err := l.Next()
		if err != nil {
			return nil, err
		}
		toks = append(toks, t)
		if t.Kind == TokEOF {
			return toks, nil
		}
	}
}
