package cc

// Node is any AST node. Every node carries the source position of its
// first token; analyses report errors against these positions.
type Node interface {
	Pos() Pos
}

// ---------------------------------------------------------------------------
// Expressions
// ---------------------------------------------------------------------------

// Expr is the interface implemented by all expression nodes.
// Parenthesized expressions are folded away during parsing, so AST
// matching is insensitive to lexical grouping artifacts (per §4 of the
// paper: "Because we match ASTs, spaces and other lexical artifacts do
// not interfere with matching").
type Expr interface {
	Node
	slot() *typeSlot
}

// typeSlot is where CheckFunc records an expression's type. Every
// expression node embeds one, so the type is carved with the node and
// dies with it; TypeOf reads it. A node CheckFunc never saw (a pattern's,
// the CFG's desugared assignments, a copy Rewrite made) reads unknown.
type typeSlot struct{ t *Type }

func (s *typeSlot) slot() *typeSlot { return s }

// Ident is a use of a named variable, function, or enum constant.
type Ident struct {
	P    Pos
	Name string
	typeSlot
}

// IntLit is an integer literal; Value holds its decoded value.
type IntLit struct {
	P     Pos
	Text  string
	Value int64
	typeSlot
}

// FloatLit is a floating-point literal.
type FloatLit struct {
	P    Pos
	Text string
	typeSlot
}

// CharLit is a character literal; Text excludes the quotes.
type CharLit struct {
	P    Pos
	Text string
	typeSlot
}

// StringLit is a string literal; Text excludes the quotes but keeps
// escape sequences verbatim.
type StringLit struct {
	P    Pos
	Text string
	typeSlot
}

// UnaryExpr is a prefix or postfix unary operation. Op is one of
// TokAmp (&x), TokStar (*x), TokPlus, TokMinus, TokTilde, TokNot,
// TokInc, TokDec. Postfix distinguishes x++ from ++x.
type UnaryExpr struct {
	P       Pos
	Op      TokKind
	X       Expr
	Postfix bool
	typeSlot
}

// BinaryExpr is a binary operation (arithmetic, relational, logical,
// bitwise, shift).
type BinaryExpr struct {
	P    Pos
	Op   TokKind
	X, Y Expr
	typeSlot
}

// AssignExpr is an assignment; Op is TokAssign or a compound
// assignment operator.
type AssignExpr struct {
	P        Pos
	Op       TokKind
	LHS, RHS Expr
	typeSlot
}

// CondExpr is the ternary conditional cond ? then : els.
type CondExpr struct {
	P                Pos
	Cond, Then, Else Expr
	typeSlot
}

// CallExpr is a function call.
type CallExpr struct {
	P    Pos
	Fun  Expr
	Args []Expr
	typeSlot
}

// CalleeName names the function a direct call calls: "" for an
// indirect call (through a pointer, a field, a hole...).
func CalleeName(call *CallExpr) string {
	if id, ok := call.Fun.(*Ident); ok {
		return id.Name
	}
	return ""
}

// IndexExpr is array subscripting x[i].
type IndexExpr struct {
	P        Pos
	X, Index Expr
	typeSlot
}

// FieldExpr is member access: x.Name or, when Arrow is set, x->Name.
type FieldExpr struct {
	P     Pos
	X     Expr
	Name  string
	Arrow bool
	typeSlot
}

// CastExpr is an explicit cast (T)x.
type CastExpr struct {
	P  Pos
	To *Type
	X  Expr
	typeSlot
}

// SizeofExpr is sizeof(expr) or sizeof(type); exactly one of X and
// Type is non-nil.
type SizeofExpr struct {
	P    Pos
	X    Expr
	Type *Type
	typeSlot
}

// CommaExpr is the comma operator; List has at least two elements.
type CommaExpr struct {
	P    Pos
	List []Expr
	typeSlot
}

// InitList is a braced initializer list { a, b, ... }.
type InitList struct {
	P    Pos
	List []Expr
	typeSlot
}

// HoleExpr is a metal pattern hole. It never results from parsing
// plain C; the pattern compiler substitutes holes for identifiers that
// were declared as metal hole variables. Meta names the hole's type
// class (see pattern.MetaKind); an empty Meta means the hole carries a
// concrete C type in CType.
type HoleExpr struct {
	P     Pos
	Name  string
	Meta  string
	CType *Type
	typeSlot
}

// HoleArgs is a metal any_arguments hole standing for an entire
// argument list; it appears only as the sole element of CallExpr.Args
// in pattern ASTs.
type HoleArgs struct {
	P    Pos
	Name string
	typeSlot
}

func (e *Ident) Pos() Pos      { return e.P }
func (e *IntLit) Pos() Pos     { return e.P }
func (e *FloatLit) Pos() Pos   { return e.P }
func (e *CharLit) Pos() Pos    { return e.P }
func (e *StringLit) Pos() Pos  { return e.P }
func (e *UnaryExpr) Pos() Pos  { return e.P }
func (e *BinaryExpr) Pos() Pos { return e.P }
func (e *AssignExpr) Pos() Pos { return e.P }
func (e *CondExpr) Pos() Pos   { return e.P }
func (e *CallExpr) Pos() Pos   { return e.P }
func (e *IndexExpr) Pos() Pos  { return e.P }
func (e *FieldExpr) Pos() Pos  { return e.P }
func (e *CastExpr) Pos() Pos   { return e.P }
func (e *SizeofExpr) Pos() Pos { return e.P }
func (e *CommaExpr) Pos() Pos  { return e.P }
func (e *InitList) Pos() Pos   { return e.P }
func (e *HoleExpr) Pos() Pos   { return e.P }
func (e *HoleArgs) Pos() Pos   { return e.P }

// ---------------------------------------------------------------------------
// Statements
// ---------------------------------------------------------------------------

// Stmt is the interface implemented by all statement nodes.
type Stmt interface {
	Node
	isStmt()
}

// ExprStmt is an expression evaluated for effect.
type ExprStmt struct {
	P Pos
	X Expr
}

// DeclStmt is a block-scope declaration; one DeclStmt may declare
// several variables (int a, b = 1;).
type DeclStmt struct {
	P     Pos
	Decls []*VarDecl
}

// CompoundStmt is a { ... } block.
type CompoundStmt struct {
	P    Pos
	List []Stmt
}

// EmptyStmt is a lone semicolon.
type EmptyStmt struct {
	P Pos
}

// IfStmt is if (Cond) Then [else Else]; Else may be nil.
type IfStmt struct {
	P          Pos
	Cond       Expr
	Then, Else Stmt
}

// WhileStmt is while (Cond) Body.
type WhileStmt struct {
	P    Pos
	Cond Expr
	Body Stmt
}

// DoWhileStmt is do Body while (Cond);.
type DoWhileStmt struct {
	P    Pos
	Body Stmt
	Cond Expr
}

// ForStmt is for (Init; Cond; Post) Body. Init is either an ExprStmt,
// a DeclStmt, or nil; Cond and Post may be nil.
type ForStmt struct {
	P    Pos
	Init Stmt
	Cond Expr
	Post Expr
	Body Stmt
}

// SwitchStmt is switch (Tag) Body; case/default labels appear inside
// Body as CaseStmt nodes.
type SwitchStmt struct {
	P    Pos
	Tag  Expr
	Body Stmt
}

// CaseStmt is a case or default label with the statement it labels.
// Val is nil for default.
type CaseStmt struct {
	P    Pos
	Val  Expr
	Body Stmt
}

// BreakStmt is break;.
type BreakStmt struct {
	P Pos
}

// ContinueStmt is continue;.
type ContinueStmt struct {
	P Pos
}

// ReturnStmt is return [X];.
type ReturnStmt struct {
	P Pos
	X Expr
}

// GotoStmt is goto Label;.
type GotoStmt struct {
	P     Pos
	Label string
}

// LabeledStmt is Label: Body.
type LabeledStmt struct {
	P     Pos
	Label string
	Body  Stmt
}

func (s *ExprStmt) Pos() Pos     { return s.P }
func (s *DeclStmt) Pos() Pos     { return s.P }
func (s *CompoundStmt) Pos() Pos { return s.P }
func (s *EmptyStmt) Pos() Pos    { return s.P }
func (s *IfStmt) Pos() Pos       { return s.P }
func (s *WhileStmt) Pos() Pos    { return s.P }
func (s *DoWhileStmt) Pos() Pos  { return s.P }
func (s *ForStmt) Pos() Pos      { return s.P }
func (s *SwitchStmt) Pos() Pos   { return s.P }
func (s *CaseStmt) Pos() Pos     { return s.P }
func (s *BreakStmt) Pos() Pos    { return s.P }
func (s *ContinueStmt) Pos() Pos { return s.P }
func (s *ReturnStmt) Pos() Pos   { return s.P }
func (s *GotoStmt) Pos() Pos     { return s.P }
func (s *LabeledStmt) Pos() Pos  { return s.P }

func (*ExprStmt) isStmt()     {}
func (*DeclStmt) isStmt()     {}
func (*CompoundStmt) isStmt() {}
func (*EmptyStmt) isStmt()    {}
func (*IfStmt) isStmt()       {}
func (*WhileStmt) isStmt()    {}
func (*DoWhileStmt) isStmt()  {}
func (*ForStmt) isStmt()      {}
func (*SwitchStmt) isStmt()   {}
func (*CaseStmt) isStmt()     {}
func (*BreakStmt) isStmt()    {}
func (*ContinueStmt) isStmt() {}
func (*ReturnStmt) isStmt()   {}
func (*GotoStmt) isStmt()     {}
func (*LabeledStmt) isStmt()  {}

// ---------------------------------------------------------------------------
// Declarations
// ---------------------------------------------------------------------------

// StorageClass is a declaration's storage-class specifier.
type StorageClass int

// Storage classes. StorageNone is the default (extern linkage at file
// scope, automatic at block scope).
const (
	StorageNone StorageClass = iota
	StorageTypedef
	StorageExtern
	StorageStatic
	StorageAuto
	StorageRegister
)

var storageNames = [...]string{"", "typedef", "extern", "static", "auto", "register"}

// String returns the C spelling ("" for StorageNone).
func (s StorageClass) String() string {
	if int(s) < len(storageNames) {
		return storageNames[s]
	}
	return "storage?"
}

// Decl is the interface implemented by all top-level declarations.
type Decl interface {
	Node
	isDecl()
}

// VarDecl declares a variable (or function parameter).
type VarDecl struct {
	P       Pos
	Name    string
	Type    *Type
	Init    Expr
	Storage StorageClass
}

// FuncDecl declares or defines a function. Body is nil for prototypes.
type FuncDecl struct {
	P        Pos
	Name     string
	Result   *Type
	Params   []*VarDecl
	Variadic bool
	Body     *CompoundStmt
	Storage  StorageClass
	// File records the source file; the refine/restore machinery uses
	// it to scope file-static state (Section 6.1).
	File string
	// Skim is pass 1's record of a definition's body (SkimFile): the
	// body stays unparsed until ParseBody parses it into Body. ParseFile
	// and ReadFile leave it empty.
	Skim BodySkim
}

// IsDefinition reports whether the declaration has a body, parsed or
// only skimmed.
func (d *FuncDecl) IsDefinition() bool { return d.Body != nil || d.Skim.src != nil }

// Signature returns the function's type.
func (d *FuncDecl) Signature() *Type {
	t := &Type{Kind: TypeFunc, Ret: d.Result, Variadic: d.Variadic}
	if len(d.Params) > 0 {
		t.Params = make([]*Type, len(d.Params))
		for i, p := range d.Params {
			t.Params[i] = p.Type
		}
	}
	return t
}

// TypedefDecl introduces a typedef name.
type TypedefDecl struct {
	P    Pos
	Name string
	Type *Type
}

// RecordDecl declares a struct or union type (possibly just the tag).
type RecordDecl struct {
	P    Pos
	Type *Type // Kind TypeStruct or TypeUnion
}

// EnumDecl declares an enum type and its constants.
type EnumDecl struct {
	P    Pos
	Type *Type // Kind TypeEnum
}

func (d *VarDecl) Pos() Pos     { return d.P }
func (d *FuncDecl) Pos() Pos    { return d.P }
func (d *TypedefDecl) Pos() Pos { return d.P }
func (d *RecordDecl) Pos() Pos  { return d.P }
func (d *EnumDecl) Pos() Pos    { return d.P }

func (*VarDecl) isDecl()     {}
func (*FuncDecl) isDecl()    {}
func (*TypedefDecl) isDecl() {}
func (*RecordDecl) isDecl()  {}
func (*EnumDecl) isDecl()    {}

// File is a parsed translation unit.
type File struct {
	Name  string
	Decls []Decl
}

// Funcs returns the function definitions (declarations with bodies,
// parsed or skimmed) in the file, in source order.
func (f *File) Funcs() []*FuncDecl {
	var out []*FuncDecl
	for _, d := range f.Decls {
		if fd, ok := d.(*FuncDecl); ok && fd.IsDefinition() {
			out = append(out, fd)
		}
	}
	return out
}
