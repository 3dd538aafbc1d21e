package cc

import "strconv"

// ---------------------------------------------------------------------------
// Expressions
// ---------------------------------------------------------------------------

// parseParenExpr parses "( expr )": a parenthesized expression, and
// the condition of if, while, do and switch.
func (p *Parser) parseParenExpr() (Expr, error) {
	if _, err := p.expect(TokLParen); err != nil {
		return nil, err
	}
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokRParen); err != nil {
		return nil, err
	}
	return e, nil
}

func (p *Parser) parseExpr() (Expr, error) {
	e, err := p.parseAssignExpr()
	if err != nil {
		return nil, err
	}
	if p.cur().Kind != TokComma {
		return e, nil
	}
	ce := &CommaExpr{P: e.Pos(), List: []Expr{e}}
	for p.accept(TokComma) {
		n, err := p.parseAssignExpr()
		if err != nil {
			return nil, err
		}
		ce.List = append(ce.List, n)
	}
	return ce, nil
}

func isAssignOp(k TokKind) bool {
	switch k {
	case TokAssign, TokAddAssign, TokSubAssign, TokMulAssign, TokDivAssign,
		TokModAssign, TokAndAssign, TokOrAssign, TokXorAssign,
		TokShlAssign, TokShrAssign:
		return true
	}
	return false
}

func (p *Parser) parseAssignExpr() (Expr, error) {
	lhs, err := p.parseCondExpr()
	if err != nil {
		return nil, err
	}
	if isAssignOp(p.cur().Kind) {
		op := p.next().Kind
		rhs, err := p.parseAssignExpr()
		if err != nil {
			return nil, err
		}
		return newNode(p, AssignExpr{P: lhs.Pos(), Op: op, LHS: lhs, RHS: rhs}), nil
	}
	return lhs, nil
}

func (p *Parser) parseCondExpr() (Expr, error) {
	cond, err := p.parseBinaryExpr(0)
	if err != nil {
		return nil, err
	}
	if !p.accept(TokQuestion) {
		return cond, nil
	}
	then, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokColon); err != nil {
		return nil, err
	}
	els, err := p.parseCondExpr()
	if err != nil {
		return nil, err
	}
	return newNode(p, CondExpr{P: cond.Pos(), Cond: cond, Then: then, Else: els}), nil
}

// binPrec returns the precedence of a binary operator token, or -1.
func binPrec(k TokKind) int {
	switch k {
	case TokOrOr:
		return 1
	case TokAndAnd:
		return 2
	case TokPipe:
		return 3
	case TokCaret:
		return 4
	case TokAmp:
		return 5
	case TokEq, TokNe:
		return 6
	case TokLt, TokGt, TokLe, TokGe:
		return 7
	case TokShl, TokShr:
		return 8
	case TokPlus, TokMinus:
		return 9
	case TokStar, TokSlash, TokPercent:
		return 10
	}
	return -1
}

func (p *Parser) parseBinaryExpr(minPrec int) (Expr, error) {
	lhs, err := p.parseCastExpr()
	if err != nil {
		return nil, err
	}
	for {
		prec := binPrec(p.cur().Kind)
		if prec < 0 || prec < minPrec {
			return lhs, nil
		}
		op := p.next().Kind
		rhs, err := p.parseBinaryExpr(prec + 1)
		if err != nil {
			return nil, err
		}
		lhs = newNode(p, BinaryExpr{P: lhs.Pos(), Op: op, X: lhs, Y: rhs})
	}
}

// startsTypeName reports whether the current token begins a type name
// (used to disambiguate casts and sizeof).
func (p *Parser) startsTypeName() bool {
	switch p.cur().Kind {
	case TokVoid, TokChar, TokShort, TokInt, TokLong, TokFloat, TokDouble,
		TokSigned, TokUnsigned, TokStruct, TokUnion, TokEnum,
		TokConst, TokVolatile:
		return true
	case TokIdent:
		_, ok := p.lookupTypedef(p.text(p.cur()))
		return ok
	}
	return false
}

func (p *Parser) parseCastExpr() (Expr, error) {
	if p.cur().Kind == TokLParen {
		// Possible cast: "(" type-name ")" cast-expr.
		save := p.save()
		lp := p.next()
		if p.startsTypeName() {
			t, err := p.parseTypeName()
			if err == nil && p.cur().Kind == TokRParen {
				p.next()
				// "(T){...}" compound literals are not supported;
				// "(T)expr" requires an expression to follow.
				x, err := p.parseCastExpr()
				if err != nil {
					return nil, err
				}
				return newNode(p, CastExpr{P: p.at(lp), To: t, X: x}), nil
			}
		}
		p.restore(save)
	}
	return p.parseUnaryExpr()
}

func (p *Parser) parseUnaryExpr() (Expr, error) {
	t := p.cur()
	switch t.Kind {
	case TokInc, TokDec:
		p.next()
		x, err := p.parseUnaryExpr()
		if err != nil {
			return nil, err
		}
		return newNode(p, UnaryExpr{P: p.at(t), Op: t.Kind, X: x}), nil
	case TokAmp, TokStar, TokPlus, TokMinus, TokTilde, TokNot:
		p.next()
		x, err := p.parseCastExpr()
		if err != nil {
			return nil, err
		}
		return newNode(p, UnaryExpr{P: p.at(t), Op: t.Kind, X: x}), nil
	case TokSizeof:
		p.next()
		if p.cur().Kind == TokLParen {
			save := p.save()
			p.next()
			if p.startsTypeName() {
				tn, err := p.parseTypeName()
				if err == nil && p.cur().Kind == TokRParen {
					p.next()
					return newNode(p, SizeofExpr{P: p.at(t), Type: tn}), nil
				}
			}
			p.restore(save)
		}
		x, err := p.parseUnaryExpr()
		if err != nil {
			return nil, err
		}
		return newNode(p, SizeofExpr{P: p.at(t), X: x}), nil
	}
	return p.parsePostfixExpr()
}

func (p *Parser) parsePostfixExpr() (Expr, error) {
	e, err := p.parsePrimaryExpr()
	if err != nil {
		return nil, err
	}
	for {
		t := p.cur()
		switch t.Kind {
		case TokLParen:
			p.next()
			call := newNode(p, CallExpr{P: e.Pos(), Fun: e})
			start := len(p.args)
			for more := p.cur().Kind != TokRParen; more; more = p.accept(TokComma) {
				arg, err := p.parseAssignExpr()
				if err != nil {
					return nil, err
				}
				p.args = append(p.args, arg)
			}
			call.Args = popList(p, &p.args, start)
			if _, err := p.expect(TokRParen); err != nil {
				return nil, err
			}
			e = call
		case TokLBracket:
			p.next()
			idx, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(TokRBracket); err != nil {
				return nil, err
			}
			e = newNode(p, IndexExpr{P: e.Pos(), X: e, Index: idx})
		case TokDot, TokArrow:
			p.next()
			name, err := p.expect(TokIdent)
			if err != nil {
				return nil, err
			}
			e = newNode(p, FieldExpr{P: e.Pos(), X: e, Name: p.text(name), Arrow: t.Kind == TokArrow})
		case TokInc, TokDec:
			p.next()
			e = newNode(p, UnaryExpr{P: e.Pos(), Op: t.Kind, X: e, Postfix: true})
		default:
			return e, nil
		}
	}
}

func (p *Parser) parsePrimaryExpr() (Expr, error) {
	t := p.cur()
	switch t.Kind {
	case TokIdent:
		p.next()
		return newNode(p, Ident{P: p.at(t), Name: p.text(t)}), nil
	case TokIntLit:
		p.next()
		text := p.text(t)
		return newNode(p, IntLit{P: p.at(t), Text: text, Value: parseIntText(text)}), nil
	case TokFloatLit:
		p.next()
		return newNode(p, FloatLit{P: p.at(t), Text: p.text(t)}), nil
	case TokCharLit:
		p.next()
		return newNode(p, CharLit{P: p.at(t), Text: p.text(t)}), nil
	case TokStringLit:
		p.next()
		// Adjacent string literals concatenate.
		text := p.text(t)
		for p.cur().Kind == TokStringLit {
			text += p.text(p.next())
		}
		return newNode(p, StringLit{P: p.at(t), Text: text}), nil
	case TokLParen:
		return p.parseParenExpr() // parens folded away
	}
	return nil, p.errf("expected expression, found %s", t.describe(p.src))
}

// parseIntText decodes a C integer literal's value (0x.., 0.., decimal
// with optional u/l suffixes).
func parseIntText(s string) int64 {
	for len(s) > 0 {
		c := s[len(s)-1]
		if c == 'u' || c == 'U' || c == 'l' || c == 'L' {
			s = s[:len(s)-1]
			continue
		}
		break
	}
	if v, err := strconv.ParseInt(s, 0, 64); err == nil {
		return v
	}
	if v, err := strconv.ParseUint(s, 0, 64); err == nil {
		return int64(v)
	}
	return 0
}

// constEval evaluates a constant expression with the parser's scope
// stack available for enum-constant lookup.
func (p *Parser) constEval(e Expr) (int64, bool) {
	return ConstEvalEnv(e, func(name string) (int64, bool) {
		if e, ok := p.lookup(nsEnum, name); ok {
			return e.val, true
		}
		return 0, false
	})
}

// ConstEval evaluates a constant integer expression, returning its
// value and whether evaluation succeeded. It handles the operators
// that appear in array bounds, enum values, and case labels.
func ConstEval(e Expr) (int64, bool) { return ConstEvalEnv(e, nil) }

// ConstEvalEnv is ConstEval with an optional resolver for identifiers
// (enum constants, known globals, a path's tracked values). It is the
// one constant folder: every package that folds a C expression calls
// it, or Binop for an operator over values it already holds.
func ConstEvalEnv(e Expr, resolve func(string) (int64, bool)) (int64, bool) {
	ev := func(x Expr) (int64, bool) { return ConstEvalEnv(x, resolve) }
	switch e := e.(type) {
	case *Ident:
		if resolve != nil {
			return resolve(e.Name)
		}
		return 0, false
	case *IntLit:
		return e.Value, true
	case *CharLit:
		return charValue(e.Text)
	case *UnaryExpr:
		v, ok := ev(e.X)
		if !ok {
			return 0, false
		}
		switch e.Op {
		case TokMinus:
			return -v, true
		case TokPlus:
			return v, true
		case TokTilde:
			return ^v, true
		case TokNot:
			return b2i(v == 0), true
		}
		return 0, false
	case *BinaryExpr:
		x, ok := ev(e.X)
		if !ok {
			return 0, false
		}
		y, ok := ev(e.Y)
		if !ok {
			return 0, false
		}
		return Binop(e.Op, x, y)
	case *CondExpr:
		c, ok := ev(e.Cond)
		if !ok {
			return 0, false
		}
		if c != 0 {
			return ev(e.Then)
		}
		return ev(e.Else)
	case *CastExpr:
		return ev(e.X)
	case *SizeofExpr:
		if e.Type != nil {
			if sz := sizeOf(e.Type); sz > 0 {
				return sz, true
			}
		}
		return 0, false
	}
	return 0, false
}

// Binop applies a binary operator to two constants. It fails on an
// operator that is not arithmetic, bitwise, relational or logical, on
// division by zero and on a shift count outside 0..63.
func Binop(op TokKind, x, y int64) (int64, bool) {
	switch op {
	case TokPlus:
		return x + y, true
	case TokMinus:
		return x - y, true
	case TokStar:
		return x * y, true
	case TokSlash:
		if y == 0 {
			return 0, false
		}
		return x / y, true
	case TokPercent:
		if y == 0 {
			return 0, false
		}
		return x % y, true
	case TokShl:
		if y < 0 || y > 63 {
			return 0, false
		}
		return x << uint(y), true
	case TokShr:
		if y < 0 || y > 63 {
			return 0, false
		}
		return x >> uint(y), true
	case TokAmp:
		return x & y, true
	case TokPipe:
		return x | y, true
	case TokCaret:
		return x ^ y, true
	case TokEq:
		return b2i(x == y), true
	case TokNe:
		return b2i(x != y), true
	case TokLt:
		return b2i(x < y), true
	case TokGt:
		return b2i(x > y), true
	case TokLe:
		return b2i(x <= y), true
	case TokGe:
		return b2i(x >= y), true
	case TokAndAnd:
		return b2i(x != 0 && y != 0), true
	case TokOrOr:
		return b2i(x != 0 || y != 0), true
	}
	return 0, false
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// charValue folds the text of a character literal (quotes excluded)
// holding one character or one escape sequence: a simple escape, an
// octal \ooo (one to three digits) or a hex \xHH. char is signed, as
// on x86-64, so an escape above 0x7f folds to a negative value. A
// multi-character constant does not fold.
func charValue(text string) (int64, bool) {
	if len(text) == 1 {
		return int64(text[0]), true
	}
	if len(text) < 2 || text[0] != '\\' {
		return 0, false
	}
	if v, ok := simpleEscapes[text[1]]; ok && len(text) == 2 {
		return v, true
	}
	digits, base := text[1:], 8
	if text[1] == 'x' {
		digits, base = text[2:], 16
	} else if len(digits) > 3 {
		return 0, false
	}
	v, err := strconv.ParseUint(digits, base, 8)
	if err != nil {
		return 0, false
	}
	return int64(int8(v)), true
}

var simpleEscapes = map[byte]int64{
	'n': '\n', 't': '\t', 'r': '\r', 'a': '\a', 'b': '\b', 'f': '\f', 'v': '\v',
	'\\': '\\', '\'': '\'', '"': '"', '?': '?',
}

// sizeOf gives a best-effort byte size for a type (LP64 model).
func sizeOf(t *Type) int64 {
	u := t.Underlying()
	switch u.Kind {
	case TypeInt, TypeFloat:
		if u.Size > 0 {
			return int64(u.Size)
		}
		return 4
	case TypePointer:
		return 8
	case TypeEnum:
		return 4
	case TypeArray:
		if u.ArrayLen >= 0 {
			es := sizeOf(u.Elem)
			if es > 0 {
				return es * u.ArrayLen
			}
		}
		return 0
	case TypeStruct:
		var total int64
		for _, f := range u.Fields {
			fs := sizeOf(f.Type)
			if fs <= 0 {
				return 0
			}
			total += fs
		}
		return total
	case TypeUnion:
		var max int64
		for _, f := range u.Fields {
			fs := sizeOf(f.Type)
			if fs <= 0 {
				return 0
			}
			if fs > max {
				max = fs
			}
		}
		return max
	}
	return 0
}
