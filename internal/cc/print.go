package cc

import (
	"fmt"
	"strconv"
)

// ExprString renders an expression back to C text. The output is fully
// parenthesized where needed, canonical, and independent of the
// original source spacing — the same property the paper relies on when
// it matches ASTs rather than text.
func ExprString(e Expr) string {
	// A leaf is its own text: no buffer for what is nearly always an
	// identifier.
	switch e := e.(type) {
	case *Ident:
		return e.Name
	case *IntLit:
		return e.Text
	}
	var buf [64]byte
	return string(writeExpr(buf[:0], e, 0))
}

// AppendExpr appends ExprString(e) to dst and returns the extended
// buffer; a nil e appends nothing. An object key probed from a reused
// buffer costs no allocation unless the expression holds a cast or a
// sizeof(type), whose type is rendered with fmt.
func AppendExpr(dst []byte, e Expr) []byte {
	if e == nil {
		return dst
	}
	return writeExpr(dst, e, 0)
}

// AppendPos appends p.String() to dst and returns the extended buffer,
// without allocating.
func AppendPos(dst []byte, p Pos) []byte {
	if p.File != "" {
		dst = append(append(dst, p.File...), ':')
	}
	dst = append(strconv.AppendInt(dst, int64(p.Line), 10), ':')
	return strconv.AppendInt(dst, int64(p.Col), 10)
}

// Operator precedence levels used to decide parenthesization when
// printing. Higher binds tighter.
func exprPrec(e Expr) int {
	switch e := e.(type) {
	case *CommaExpr:
		return 1
	case *AssignExpr:
		return 2
	case *CondExpr:
		return 3
	case *BinaryExpr:
		return 3 + binPrec(e.Op) // 4..13
	case *CastExpr, *SizeofExpr:
		return 14
	case *UnaryExpr:
		if e.Postfix {
			return 15
		}
		return 14
	default:
		return 15 // primary, call, index, field, holes
	}
}

func writeExpr(b []byte, e Expr, minPrec int) []byte {
	prec := exprPrec(e)
	paren := prec < minPrec
	if paren {
		b = append(b, '(')
	}
	switch e := e.(type) {
	case *Ident:
		b = append(b, e.Name...)
	case *IntLit:
		b = append(b, e.Text...)
	case *FloatLit:
		b = append(b, e.Text...)
	case *CharLit:
		b = append(b, '\'')
		b = append(b, e.Text...)
		b = append(b, '\'')
	case *StringLit:
		b = append(b, '"')
		b = append(b, e.Text...)
		b = append(b, '"')
	case *UnaryExpr:
		if e.Postfix {
			b = writeExpr(b, e.X, prec)
			b = append(b, e.Op.String()...)
		} else {
			b = append(b, e.Op.String()...)
			// Avoid "- -x" gluing into "--x".
			if u, ok := e.X.(*UnaryExpr); ok && !u.Postfix && (u.Op == e.Op && (e.Op == TokMinus || e.Op == TokPlus || e.Op == TokAmp)) {
				b = append(b, ' ')
			}
			b = writeExpr(b, e.X, prec)
		}
	case *BinaryExpr:
		b = writeExpr(b, e.X, prec)
		b = append(b, ' ')
		b = append(b, e.Op.String()...)
		b = append(b, ' ')
		b = writeExpr(b, e.Y, prec+1)
	case *AssignExpr:
		b = writeExpr(b, e.LHS, prec+1)
		b = append(b, ' ')
		b = append(b, e.Op.String()...)
		b = append(b, ' ')
		b = writeExpr(b, e.RHS, prec)
	case *CondExpr:
		b = writeExpr(b, e.Cond, prec+1)
		b = append(b, " ? "...)
		b = writeExpr(b, e.Then, 0)
		b = append(b, " : "...)
		b = writeExpr(b, e.Else, prec)
	case *CallExpr:
		b = writeExpr(b, e.Fun, prec)
		b = append(b, '(')
		for i, a := range e.Args {
			if i > 0 {
				b = append(b, ", "...)
			}
			b = writeExpr(b, a, 2) // assignment level: commas separate args
		}
		b = append(b, ')')
	case *IndexExpr:
		b = writeExpr(b, e.X, prec)
		b = append(b, '[')
		b = writeExpr(b, e.Index, 0)
		b = append(b, ']')
	case *FieldExpr:
		b = writeExpr(b, e.X, prec)
		if e.Arrow {
			b = append(b, "->"...)
		} else {
			b = append(b, '.')
		}
		b = append(b, e.Name...)
	case *CastExpr:
		b = fmt.Appendf(b, "(%s)", e.To)
		b = writeExpr(b, e.X, prec)
	case *SizeofExpr:
		if e.Type != nil {
			b = fmt.Appendf(b, "sizeof(%s)", e.Type)
		} else {
			b = append(b, "sizeof "...)
			b = writeExpr(b, e.X, prec)
		}
	case *CommaExpr:
		for i, x := range e.List {
			if i > 0 {
				b = append(b, ", "...)
			}
			b = writeExpr(b, x, 2)
		}
	case *InitList:
		b = append(b, '{')
		for i, x := range e.List {
			if i > 0 {
				b = append(b, ", "...)
			}
			b = writeExpr(b, x, 2)
		}
		b = append(b, '}')
	case *HoleExpr:
		b = append(append(b, '$'), e.Name...)
	case *HoleArgs:
		b = append(append(append(b, '$'), e.Name...), "..."...)
	default:
		b = append(b, "<?expr?>"...)
	}
	if paren {
		b = append(b, ')')
	}
	return b
}
