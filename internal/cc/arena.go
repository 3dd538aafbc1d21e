package cc

import "repro/internal/slab"

// Arena holds the slabs a pass carves function bodies from: every node
// the parser makes inside a body, and the lists it pops off its stacks
// there (a block's statements, a call's arguments, a declaration's
// declarators). An arena belongs to one worker of one pass — a
// goroutine of ParseFiles or SkimFiles, a parse worker of a program's
// BuildUnits, one ParseFile call — and dies with it; a body's memory
// returns when the last body carved from the same chunks is dropped
// (DESIGN §12.1). Outside a body the parser has no arena, so file-scope
// declarations, parameters and types are allocated one by one and no
// declaration that outlives its body pins a body's chunk. The zero
// value is ready to use; an Arena is not safe for concurrent use.
type Arena struct {
	idents   slab.Slab[Ident]
	ints     slab.Slab[IntLit]
	floats   slab.Slab[FloatLit]
	chars    slab.Slab[CharLit]
	strs     slab.Slab[StringLit]
	unaries  slab.Slab[UnaryExpr]
	binaries slab.Slab[BinaryExpr]
	assigns  slab.Slab[AssignExpr]
	conds    slab.Slab[CondExpr]
	calls    slab.Slab[CallExpr]
	indexes  slab.Slab[IndexExpr]
	fields   slab.Slab[FieldExpr]
	casts    slab.Slab[CastExpr]
	sizeofs  slab.Slab[SizeofExpr]

	exprStmts slab.Slab[ExprStmt]
	declStmts slab.Slab[DeclStmt]
	blocks    slab.Slab[CompoundStmt]
	ifs       slab.Slab[IfStmt]
	loops     slab.Slab[WhileStmt]
	fors      slab.Slab[ForStmt]
	cases     slab.Slab[CaseStmt]
	returns   slab.Slab[ReturnStmt]
	breaks    slab.Slab[BreakStmt]
	vars      slab.Slab[VarDecl]

	stmtLists slab.Slab[Stmt]
	exprLists slab.Slab[Expr]
	varLists  slab.Slab[*VarDecl]
}

// newNode is the constructor of every node kind the parser makes: v in
// a T carved from the parser's arena inside a body, or allocated on its
// own outside one (p.a nil). The rare kinds (do-while, switch,
// continue, goto, labels, empty statements, comma expressions,
// initializer lists) have no slab and are allocated alone.
func newNode[T any](p *Parser, v T) *T {
	a := p.a
	if a == nil {
		n := new(T)
		*n = v
		return n
	}
	var s any
	switch any((*T)(nil)).(type) {
	case *Ident:
		s = &a.idents
	case *IntLit:
		s = &a.ints
	case *FloatLit:
		s = &a.floats
	case *CharLit:
		s = &a.chars
	case *StringLit:
		s = &a.strs
	case *UnaryExpr:
		s = &a.unaries
	case *BinaryExpr:
		s = &a.binaries
	case *AssignExpr:
		s = &a.assigns
	case *CondExpr:
		s = &a.conds
	case *CallExpr:
		s = &a.calls
	case *IndexExpr:
		s = &a.indexes
	case *FieldExpr:
		s = &a.fields
	case *CastExpr:
		s = &a.casts
	case *SizeofExpr:
		s = &a.sizeofs
	case *ExprStmt:
		s = &a.exprStmts
	case *DeclStmt:
		s = &a.declStmts
	case *CompoundStmt:
		s = &a.blocks
	case *IfStmt:
		s = &a.ifs
	case *WhileStmt:
		s = &a.loops
	case *ForStmt:
		s = &a.fors
	case *CaseStmt:
		s = &a.cases
	case *ReturnStmt:
		s = &a.returns
	case *BreakStmt:
		s = &a.breaks
	case *VarDecl:
		s = &a.vars
	default:
		n := new(T)
		*n = v
		return n
	}
	n := s.(*slab.Slab[T]).New()
	*n = v
	return n
}

// popList returns (*stack)[start:] in an array of its own, nil when it
// is empty, and truncates the stack to start. Inside a body the array
// is carved from the parser's arena.
func popList[T any](p *Parser, stack *[]T, start int) []T {
	s := *stack
	if len(s) == start {
		return nil
	}
	var out []T
	if p.a == nil {
		out = make([]T, len(s)-start)
	} else {
		var lists any
		switch any(stack).(type) {
		case *[]Stmt:
			lists = &p.a.stmtLists
		case *[]Expr:
			lists = &p.a.exprLists
		case *[]*VarDecl:
			lists = &p.a.varLists
		}
		out = lists.(*slab.Slab[T]).Take(len(s) - start)
	}
	copy(out, s[start:])
	clear(s[start:])
	*stack = s[:start]
	return out
}
