package cc

import "repro/internal/slab"

// TypeOf returns the type CheckFunc recorded in e, or the unknown type
// for a node it never typed (and for nil). The pattern matcher consults
// it to decide whether a typed hole can be filled by an expression.
func TypeOf(e Expr) *Type {
	if e != nil {
		if t := e.slot().t; t != nil {
			return t
		}
	}
	return TypeUnknownV
}

// TypeEnv holds program-wide naming context: global variables,
// function declarations, and enum constants across all files. Like the
// paper's system, unknown names do not stop the analysis — they type
// as unknown and the checkers keep going.
type TypeEnv struct {
	Globals map[string]*Type
	Funcs   map[string]*FuncDecl
	Enums   map[string]int64

	// sigs holds each function's type, built at its first use, so every
	// reference to a function shares one *Type. The types and their
	// parameter lists are carved from the env's slabs: only the bodies
	// it types point at them, and a body dies before its program's env
	// (DESIGN §12.1).
	sigs      map[*FuncDecl]*Type
	sigTypes  slab.Slab[Type]
	sigParams slab.Slab[*Type]
	// tc is CheckFunc's scratch, kept from one function to the next.
	tc typeChecker
}

// NewTypeEnv builds a TypeEnv from the given translation units.
func NewTypeEnv(files ...*File) *TypeEnv {
	env := &TypeEnv{
		Globals: map[string]*Type{},
		Funcs:   map[string]*FuncDecl{},
		Enums:   map[string]int64{},
		sigs:    map[*FuncDecl]*Type{},
	}
	for _, f := range files {
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *VarDecl:
				env.Globals[d.Name] = d.Type
			case *FuncDecl:
				// Prefer definitions over prototypes.
				if prev, ok := env.Funcs[d.Name]; !ok || (!prev.IsDefinition() && d.IsDefinition()) {
					env.Funcs[d.Name] = d
				}
			case *EnumDecl:
				for _, ec := range d.Type.Enums {
					env.Enums[ec.Name] = ec.Value
				}
			case *TypedefDecl:
				if u := d.Type.Underlying(); u.Kind == TypeEnum {
					for _, ec := range u.Enums {
						env.Enums[ec.Name] = ec.Value
					}
				}
			}
		}
	}
	return env
}

// checker carries scope state while typing one function.
type typeChecker struct {
	env *TypeEnv
	// locals is the scope stack, innermost declaration last; marks[i]
	// is where the i-th open block's declarations begin. A function
	// declares tens of names, so lookup scans.
	locals []local
	marks  []int
}

type local struct {
	name string
	typ  *Type
}

// CheckFunc infers a type for every expression in fd's body and records
// it in the expression's node (TypeOf). It never fails: unknown
// constructs type as unknown. It works in env's scratch, so one env
// types one function at a time, and it writes the body: nothing may
// read the body's types meanwhile.
func (env *TypeEnv) CheckFunc(fd *FuncDecl) {
	tc := &env.tc
	tc.env = env
	for _, p := range fd.Params {
		tc.declare(p.Name, p.Type)
	}
	if fd.Body != nil {
		tc.stmt(fd.Body)
	}
	clear(tc.locals)
	tc.locals, tc.marks = tc.locals[:0], tc.marks[:0]
}

func (tc *typeChecker) push() { tc.marks = append(tc.marks, len(tc.locals)) }

func (tc *typeChecker) pop() {
	tc.locals = tc.locals[:tc.marks[len(tc.marks)-1]]
	tc.marks = tc.marks[:len(tc.marks)-1]
}

func (tc *typeChecker) declare(name string, t *Type) {
	tc.locals = append(tc.locals, local{name, t})
}

func (tc *typeChecker) lookup(name string) *Type {
	for i := len(tc.locals) - 1; i >= 0; i-- {
		if tc.locals[i].name == name {
			return tc.locals[i].typ
		}
	}
	if t, ok := tc.env.Globals[name]; ok {
		return t
	}
	if fd, ok := tc.env.Funcs[name]; ok {
		return tc.env.signature(fd)
	}
	if _, ok := tc.env.Enums[name]; ok {
		return TypeIntV
	}
	return TypeUnknownV
}

// signature returns fd's type: its result, parameter types and
// variadic flag.
func (env *TypeEnv) signature(fd *FuncDecl) *Type {
	t, ok := env.sigs[fd]
	if !ok {
		t = env.sigTypes.New()
		t.Kind, t.Ret, t.Variadic = TypeFunc, fd.Result, fd.Variadic
		if len(fd.Params) > 0 {
			t.Params = env.sigParams.Take(len(fd.Params))
			for i, p := range fd.Params {
				t.Params[i] = p.Type
			}
		}
		env.sigs[fd] = t
	}
	return t
}

func (tc *typeChecker) stmt(s Stmt) {
	switch s := s.(type) {
	case *ExprStmt:
		tc.expr(s.X)
	case *DeclStmt:
		for _, d := range s.Decls {
			// The declarator is in scope within its own initializer
			// (e.g. "struct big *b = kmalloc(sizeof b);").
			tc.declare(d.Name, d.Type)
			if d.Init != nil {
				tc.expr(d.Init)
			}
		}
	case *CompoundStmt:
		tc.push()
		for _, c := range s.List {
			tc.stmt(c)
		}
		tc.pop()
	case *IfStmt:
		tc.expr(s.Cond)
		tc.stmt(s.Then)
		if s.Else != nil {
			tc.stmt(s.Else)
		}
	case *WhileStmt:
		tc.expr(s.Cond)
		tc.stmt(s.Body)
	case *DoWhileStmt:
		tc.stmt(s.Body)
		tc.expr(s.Cond)
	case *ForStmt:
		tc.push()
		if s.Init != nil {
			tc.stmt(s.Init)
		}
		if s.Cond != nil {
			tc.expr(s.Cond)
		}
		if s.Post != nil {
			tc.expr(s.Post)
		}
		tc.stmt(s.Body)
		tc.pop()
	case *SwitchStmt:
		tc.expr(s.Tag)
		tc.stmt(s.Body)
	case *CaseStmt:
		if s.Val != nil {
			tc.expr(s.Val)
		}
		tc.stmt(s.Body)
	case *ReturnStmt:
		if s.X != nil {
			tc.expr(s.X)
		}
	case *LabeledStmt:
		tc.stmt(s.Body)
	case *EmptyStmt, *BreakStmt, *ContinueStmt, *GotoStmt:
		// no expressions
	}
}

func (tc *typeChecker) expr(e Expr) *Type {
	t := tc.exprType(e)
	e.slot().t = t
	return t
}

func (tc *typeChecker) exprType(e Expr) *Type {
	switch e := e.(type) {
	case *Ident:
		return tc.lookup(e.Name)
	case *IntLit:
		return TypeIntV
	case *FloatLit:
		return TypeDoubleV
	case *CharLit:
		return TypeCharV
	case *StringLit:
		return PointerTo(TypeCharV)
	case *UnaryExpr:
		xt := tc.expr(e.X)
		switch e.Op {
		case TokStar:
			if pt := xt.PointeeType(); pt != nil {
				return pt
			}
			return TypeUnknownV
		case TokAmp:
			return PointerTo(xt)
		case TokNot:
			return TypeIntV
		case TokTilde:
			return xt
		case TokMinus, TokPlus, TokInc, TokDec:
			return xt
		}
		return TypeUnknownV
	case *BinaryExpr:
		xt := tc.expr(e.X)
		yt := tc.expr(e.Y)
		switch e.Op {
		case TokEq, TokNe, TokLt, TokGt, TokLe, TokGe, TokAndAnd, TokOrOr:
			return TypeIntV
		case TokPlus, TokMinus:
			// Pointer arithmetic keeps the pointer type.
			if xt.IsPointer() {
				return xt
			}
			if yt.IsPointer() {
				return yt
			}
			return arithResult(xt, yt)
		default:
			return arithResult(xt, yt)
		}
	case *AssignExpr:
		tc.expr(e.RHS)
		return tc.expr(e.LHS)
	case *CondExpr:
		tc.expr(e.Cond)
		tt := tc.expr(e.Then)
		et := tc.expr(e.Else)
		if tt.IsUnknown() {
			return et
		}
		return tt
	case *CallExpr:
		for _, a := range e.Args {
			tc.expr(a)
		}
		ft := tc.expr(e.Fun)
		u := ft.Underlying()
		if u.Kind == TypeFunc {
			return u.Ret
		}
		if u.Kind == TypePointer && u.Elem.Underlying().Kind == TypeFunc {
			return u.Elem.Underlying().Ret
		}
		return TypeUnknownV
	case *IndexExpr:
		xt := tc.expr(e.X)
		tc.expr(e.Index)
		if pt := xt.PointeeType(); pt != nil {
			return pt
		}
		return TypeUnknownV
	case *FieldExpr:
		xt := tc.expr(e.X)
		if e.Arrow {
			if pt := xt.PointeeType(); pt != nil {
				return pt.FieldType(e.Name)
			}
			return TypeUnknownV
		}
		return xt.FieldType(e.Name)
	case *CastExpr:
		tc.expr(e.X)
		return e.To
	case *SizeofExpr:
		if e.X != nil {
			tc.expr(e.X)
		}
		return TypeULongV
	case *CommaExpr:
		var last *Type = TypeUnknownV
		for _, x := range e.List {
			last = tc.expr(x)
		}
		return last
	case *InitList:
		for _, x := range e.List {
			tc.expr(x)
		}
		return TypeUnknownV
	case *HoleExpr:
		if e.CType != nil {
			return e.CType
		}
		return TypeUnknownV
	case *HoleArgs:
		return TypeUnknownV
	}
	return TypeUnknownV
}

// arithResult implements the usual arithmetic conversions, loosely:
// the larger/floatier operand wins; unknown propagates.
func arithResult(a, b *Type) *Type {
	au, bu := a.Underlying(), b.Underlying()
	if au.Kind == TypeUnknown {
		return b
	}
	if bu.Kind == TypeUnknown {
		return a
	}
	if au.Kind == TypeFloat && bu.Kind == TypeFloat {
		if au.Size >= bu.Size {
			return a
		}
		return b
	}
	if au.Kind == TypeFloat {
		return a
	}
	if bu.Kind == TypeFloat {
		return b
	}
	if au.Kind == TypeInt && bu.Kind == TypeInt {
		if au.Size > bu.Size {
			return a
		}
		if bu.Size > au.Size {
			return b
		}
		if au.Unsigned {
			return a
		}
		return b
	}
	// Enums behave as int.
	if au.Kind == TypeEnum {
		return TypeIntV
	}
	return a
}
