package cc

import "repro/internal/slab"

// Arena holds the slabs a pass carves its declarations and function
// bodies from: every node the parser makes, and the lists it pops off
// its stacks (a block's statements, a call's arguments, a parameter
// list, a declaration's declarators). An arena belongs to one worker of
// one pass — a goroutine of SkimFiles, a parse worker of a
// program's BuildUnits, one ParseFile call — and dies with it; its
// memory returns when the last node carved from the same chunks is
// dropped (DESIGN §12.1). A declaration that outlives its pass is copied
// out of the arena by whoever keeps it (prog.Assemble), and types are
// never carved (decl.go's declUse), so nothing kept pins a chunk. The
// zero value is ready to use; an Arena is not safe for concurrent use.
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
	funcs     slab.Slab[FuncDecl]

	stmtLists slab.Slab[Stmt]
	exprLists slab.Slab[Expr]
	varLists  slab.Slab[*VarDecl]

	// The parser's stacks and skim scratch, between the parses they are
	// lent to (Parser.useArena).
	stacks stacks
	sk     skimmer
}

// newNode is the constructor of every node kind the parser makes: v in
// a T carved from the parser's arena, or allocated on its own without
// one (a pattern's or a type name's parse). The rare kinds (do-while,
// switch, continue, goto, labels, empty statements, comma expressions,
// initializer lists, typedef, record and enum declarations) have no
// slab and are allocated alone.
func newNode[T any](p *Parser, v T) *T {
	a := p.arena
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
	case *FuncDecl:
		s = &a.funcs
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
// is empty, and truncates the stack to start. The array is carved from
// the parser's arena, but for a file's declarations: one list a file.
func popList[T any](p *Parser, stack *[]T, start int) []T {
	s := *stack
	if len(s) == start {
		return nil
	}
	var lists any
	if a := p.arena; a != nil {
		switch any(stack).(type) {
		case *[]Stmt:
			lists = &a.stmtLists
		case *[]Expr:
			lists = &a.exprLists
		case *[]*VarDecl:
			lists = &a.varLists
		}
	}
	var out []T
	if lists == nil {
		out = make([]T, len(s)-start)
	} else {
		out = lists.(*slab.Slab[T]).Take(len(s) - start)
	}
	copy(out, s[start:])
	clear(s[start:])
	*stack = s[:start]
	return out
}
