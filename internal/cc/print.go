package cc

import (
	"fmt"
	"strings"
)

// ExprString renders an expression back to C text. The output is fully
// parenthesized where needed, canonical, and independent of the
// original source spacing — the same property the paper relies on when
// it matches ASTs rather than text.
func ExprString(e Expr) string {
	// A leaf is its own text: no builder for what is nearly always an
	// identifier (ExprKey of a tracked object).
	switch e := e.(type) {
	case *Ident:
		return e.Name
	case *IntLit:
		return e.Text
	}
	var sb strings.Builder
	writeExpr(&sb, e, 0)
	return sb.String()
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

func writeExpr(sb *strings.Builder, e Expr, minPrec int) {
	prec := exprPrec(e)
	if prec < minPrec {
		sb.WriteByte('(')
		defer sb.WriteByte(')')
	}
	switch e := e.(type) {
	case *Ident:
		sb.WriteString(e.Name)
	case *IntLit:
		sb.WriteString(e.Text)
	case *FloatLit:
		sb.WriteString(e.Text)
	case *CharLit:
		sb.WriteByte('\'')
		sb.WriteString(e.Text)
		sb.WriteByte('\'')
	case *StringLit:
		sb.WriteByte('"')
		sb.WriteString(e.Text)
		sb.WriteByte('"')
	case *UnaryExpr:
		if e.Postfix {
			writeExpr(sb, e.X, prec)
			sb.WriteString(e.Op.String())
		} else {
			sb.WriteString(e.Op.String())
			// Avoid "- -x" gluing into "--x".
			if u, ok := e.X.(*UnaryExpr); ok && !u.Postfix && (u.Op == e.Op && (e.Op == TokMinus || e.Op == TokPlus || e.Op == TokAmp)) {
				sb.WriteByte(' ')
			}
			writeExpr(sb, e.X, prec)
		}
	case *BinaryExpr:
		writeExpr(sb, e.X, prec)
		sb.WriteByte(' ')
		sb.WriteString(e.Op.String())
		sb.WriteByte(' ')
		writeExpr(sb, e.Y, prec+1)
	case *AssignExpr:
		writeExpr(sb, e.LHS, prec+1)
		sb.WriteByte(' ')
		sb.WriteString(e.Op.String())
		sb.WriteByte(' ')
		writeExpr(sb, e.RHS, prec)
	case *CondExpr:
		writeExpr(sb, e.Cond, prec+1)
		sb.WriteString(" ? ")
		writeExpr(sb, e.Then, 0)
		sb.WriteString(" : ")
		writeExpr(sb, e.Else, prec)
	case *CallExpr:
		writeExpr(sb, e.Fun, prec)
		sb.WriteByte('(')
		for i, a := range e.Args {
			if i > 0 {
				sb.WriteString(", ")
			}
			writeExpr(sb, a, 2) // assignment level: commas separate args
		}
		sb.WriteByte(')')
	case *IndexExpr:
		writeExpr(sb, e.X, prec)
		sb.WriteByte('[')
		writeExpr(sb, e.Index, 0)
		sb.WriteByte(']')
	case *FieldExpr:
		writeExpr(sb, e.X, prec)
		if e.Arrow {
			sb.WriteString("->")
		} else {
			sb.WriteByte('.')
		}
		sb.WriteString(e.Name)
	case *CastExpr:
		fmt.Fprintf(sb, "(%s)", e.To)
		writeExpr(sb, e.X, prec)
	case *SizeofExpr:
		if e.Type != nil {
			fmt.Fprintf(sb, "sizeof(%s)", e.Type)
		} else {
			sb.WriteString("sizeof ")
			writeExpr(sb, e.X, prec)
		}
	case *CommaExpr:
		for i, x := range e.List {
			if i > 0 {
				sb.WriteString(", ")
			}
			writeExpr(sb, x, 2)
		}
	case *InitList:
		sb.WriteByte('{')
		for i, x := range e.List {
			if i > 0 {
				sb.WriteString(", ")
			}
			writeExpr(sb, x, 2)
		}
		sb.WriteByte('}')
	case *HoleExpr:
		fmt.Fprintf(sb, "$%s", e.Name)
	case *HoleArgs:
		fmt.Fprintf(sb, "$%s...", e.Name)
	default:
		sb.WriteString("<?expr?>")
	}
}
