package cc

import "slices"

// This file provides canonical expression keys and structural AST
// equality. The analysis engine identifies tracked program objects by
// key (§5.1: "The tree in the var field can be any tree in the code"),
// and patterns with repeated hole variables require "equivalent ASTs"
// (§4). The walks every other package reads and rebuilds expressions
// through (WalkExpr, Rewrite, ExecOrder) are here too.

// ExprKey returns a canonical string identifying the expression's
// structure. Two expressions have the same key iff EqualExpr reports
// them equal. Keys are stable across parses: they derive only from the
// canonical printed form, never from positions.
func ExprKey(e Expr) string {
	if e == nil {
		return ""
	}
	return ExprString(e)
}

// EqualExpr reports structural equality of two expressions, ignoring
// positions and lexical artifacts. Hole expressions compare by name.
func EqualExpr(a, b Expr) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	switch a := a.(type) {
	case *Ident:
		b, ok := b.(*Ident)
		return ok && a.Name == b.Name
	case *IntLit:
		b, ok := b.(*IntLit)
		return ok && a.Value == b.Value
	case *FloatLit:
		b, ok := b.(*FloatLit)
		return ok && a.Text == b.Text
	case *CharLit:
		b, ok := b.(*CharLit)
		return ok && a.Text == b.Text
	case *StringLit:
		b, ok := b.(*StringLit)
		return ok && a.Text == b.Text
	case *UnaryExpr:
		b, ok := b.(*UnaryExpr)
		return ok && a.Op == b.Op && a.Postfix == b.Postfix && EqualExpr(a.X, b.X)
	case *BinaryExpr:
		b, ok := b.(*BinaryExpr)
		return ok && a.Op == b.Op && EqualExpr(a.X, b.X) && EqualExpr(a.Y, b.Y)
	case *AssignExpr:
		b, ok := b.(*AssignExpr)
		return ok && a.Op == b.Op && EqualExpr(a.LHS, b.LHS) && EqualExpr(a.RHS, b.RHS)
	case *CondExpr:
		b, ok := b.(*CondExpr)
		return ok && EqualExpr(a.Cond, b.Cond) && EqualExpr(a.Then, b.Then) && EqualExpr(a.Else, b.Else)
	case *CallExpr:
		b, ok := b.(*CallExpr)
		if !ok || !EqualExpr(a.Fun, b.Fun) || len(a.Args) != len(b.Args) {
			return false
		}
		for i := range a.Args {
			if !EqualExpr(a.Args[i], b.Args[i]) {
				return false
			}
		}
		return true
	case *IndexExpr:
		b, ok := b.(*IndexExpr)
		return ok && EqualExpr(a.X, b.X) && EqualExpr(a.Index, b.Index)
	case *FieldExpr:
		b, ok := b.(*FieldExpr)
		return ok && a.Name == b.Name && a.Arrow == b.Arrow && EqualExpr(a.X, b.X)
	case *CastExpr:
		b, ok := b.(*CastExpr)
		return ok && SameType(a.To, b.To) && EqualExpr(a.X, b.X)
	case *SizeofExpr:
		b, ok := b.(*SizeofExpr)
		if !ok {
			return false
		}
		if a.Type != nil || b.Type != nil {
			return a.Type != nil && b.Type != nil && SameType(a.Type, b.Type)
		}
		return EqualExpr(a.X, b.X)
	case *CommaExpr:
		b, ok := b.(*CommaExpr)
		if !ok || len(a.List) != len(b.List) {
			return false
		}
		for i := range a.List {
			if !EqualExpr(a.List[i], b.List[i]) {
				return false
			}
		}
		return true
	case *InitList:
		b, ok := b.(*InitList)
		if !ok || len(a.List) != len(b.List) {
			return false
		}
		for i := range a.List {
			if !EqualExpr(a.List[i], b.List[i]) {
				return false
			}
		}
		return true
	case *HoleExpr:
		b, ok := b.(*HoleExpr)
		return ok && a.Name == b.Name
	case *HoleArgs:
		b, ok := b.(*HoleArgs)
		return ok && a.Name == b.Name
	}
	return false
}

// SubExprOf reports whether needle occurs (structurally) within
// haystack, including haystack itself.
func SubExprOf(needle, haystack Expr) bool {
	found := false
	WalkExpr(haystack, func(sub Expr) bool {
		if EqualExpr(sub, needle) {
			found = true
		}
		return !found
	})
	return found
}

// WalkExpr visits e and its sub-expressions in pre-order. The visitor
// returns false to stop descending into the current node.
func WalkExpr(e Expr, visit func(Expr) bool) {
	if e == nil || !visit(e) {
		return
	}
	switch e := e.(type) {
	case *UnaryExpr:
		WalkExpr(e.X, visit)
	case *BinaryExpr:
		WalkExpr(e.X, visit)
		WalkExpr(e.Y, visit)
	case *AssignExpr:
		WalkExpr(e.LHS, visit)
		WalkExpr(e.RHS, visit)
	case *CondExpr:
		WalkExpr(e.Cond, visit)
		WalkExpr(e.Then, visit)
		WalkExpr(e.Else, visit)
	case *CallExpr:
		WalkExpr(e.Fun, visit)
		for _, a := range e.Args {
			WalkExpr(a, visit)
		}
	case *IndexExpr:
		WalkExpr(e.X, visit)
		WalkExpr(e.Index, visit)
	case *FieldExpr:
		WalkExpr(e.X, visit)
	case *CastExpr:
		WalkExpr(e.X, visit)
	case *SizeofExpr:
		if e.X != nil {
			WalkExpr(e.X, visit)
		}
	case *CommaExpr:
		for _, x := range e.List {
			WalkExpr(x, visit)
		}
	case *InitList:
		for _, x := range e.List {
			WalkExpr(x, visit)
		}
	}
}

// Rewrite returns e with sub-expressions replaced by f. f sees the
// nodes in pre-order and returns nil to keep a node and descend into
// it, or the node's replacement, which is not descended (returning the
// node itself keeps it whole). Rewrite copies only the nodes above a
// replacement and shares every other subtree with e, so a rewrite
// that replaces nothing returns e itself.
func Rewrite(e Expr, f func(Expr) Expr) Expr {
	if e == nil {
		return nil
	}
	if r := f(e); r != nil {
		return r
	}
	switch e := e.(type) {
	case *UnaryExpr:
		if x := Rewrite(e.X, f); x != e.X {
			c := *e
			c.X = x
			return &c
		}
	case *BinaryExpr:
		if x, y := Rewrite(e.X, f), Rewrite(e.Y, f); x != e.X || y != e.Y {
			c := *e
			c.X, c.Y = x, y
			return &c
		}
	case *AssignExpr:
		if l, r := Rewrite(e.LHS, f), Rewrite(e.RHS, f); l != e.LHS || r != e.RHS {
			c := *e
			c.LHS, c.RHS = l, r
			return &c
		}
	case *CondExpr:
		co, th, el := Rewrite(e.Cond, f), Rewrite(e.Then, f), Rewrite(e.Else, f)
		if co != e.Cond || th != e.Then || el != e.Else {
			c := *e
			c.Cond, c.Then, c.Else = co, th, el
			return &c
		}
	case *CallExpr:
		fun, args := Rewrite(e.Fun, f), rewriteList(e.Args, f)
		if fun != e.Fun || args != nil {
			c := *e
			c.Fun = fun
			if args != nil {
				c.Args = args
			}
			return &c
		}
	case *IndexExpr:
		if x, i := Rewrite(e.X, f), Rewrite(e.Index, f); x != e.X || i != e.Index {
			c := *e
			c.X, c.Index = x, i
			return &c
		}
	case *FieldExpr:
		if x := Rewrite(e.X, f); x != e.X {
			c := *e
			c.X = x
			return &c
		}
	case *CastExpr:
		if x := Rewrite(e.X, f); x != e.X {
			c := *e
			c.X = x
			return &c
		}
	case *SizeofExpr:
		if x := Rewrite(e.X, f); x != e.X {
			c := *e
			c.X = x
			return &c
		}
	case *CommaExpr:
		if list := rewriteList(e.List, f); list != nil {
			return &CommaExpr{P: e.P, List: list}
		}
	case *InitList:
		if list := rewriteList(e.List, f); list != nil {
			return &InitList{P: e.P, List: list}
		}
	}
	return e
}

// rewriteList rewrites each element of list, returning the new list,
// or nil if no element changed.
func rewriteList(list []Expr, f func(Expr) Expr) []Expr {
	var out []Expr
	for i, x := range list {
		if y := Rewrite(x, f); y != x {
			if out == nil {
				out = slices.Clone(list)
			}
			out[i] = y
		}
	}
	return out
}

// ExecOrder appends to out the evaluation-ordered sequence of program
// points for an expression tree, per §5: "the tree for each individual
// statement is visited in the order that the corresponding
// instructions would execute. For example, a function call's arguments
// are visited before the call; an assignment's right-hand side is
// visited first, then the left-hand side, then the assignment."
// Every sub-expression is itself a program point, emitted after its
// operands.
func ExecOrder(e Expr, out []Expr) []Expr {
	if e == nil {
		return out
	}
	switch e := e.(type) {
	case *Ident, *IntLit, *FloatLit, *CharLit, *StringLit, *HoleExpr, *HoleArgs:
		return append(out, e)
	case *UnaryExpr:
		out = ExecOrder(e.X, out)
		return append(out, e)
	case *BinaryExpr:
		// Short-circuit operators are split into CFG edges by the CFG
		// builder; at the expression level we emit operands in order.
		out = ExecOrder(e.X, out)
		out = ExecOrder(e.Y, out)
		return append(out, e)
	case *AssignExpr:
		out = ExecOrder(e.RHS, out)
		out = ExecOrder(e.LHS, out)
		return append(out, e)
	case *CondExpr:
		out = ExecOrder(e.Cond, out)
		out = ExecOrder(e.Then, out)
		out = ExecOrder(e.Else, out)
		return append(out, e)
	case *CallExpr:
		for _, a := range e.Args {
			out = ExecOrder(a, out)
		}
		out = ExecOrder(e.Fun, out)
		return append(out, e)
	case *IndexExpr:
		out = ExecOrder(e.X, out)
		out = ExecOrder(e.Index, out)
		return append(out, e)
	case *FieldExpr:
		out = ExecOrder(e.X, out)
		return append(out, e)
	case *CastExpr:
		out = ExecOrder(e.X, out)
		return append(out, e)
	case *SizeofExpr:
		// sizeof does not evaluate its operand.
		return append(out, e)
	case *CommaExpr:
		for _, x := range e.List {
			out = ExecOrder(x, out)
		}
		return append(out, e)
	case *InitList:
		for _, x := range e.List {
			out = ExecOrder(x, out)
		}
		return append(out, e)
	}
	return append(out, e)
}
