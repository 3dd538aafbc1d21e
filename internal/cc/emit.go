package cc

// This file implements the two-pass architecture of §6: "The first
// preprocessing pass compiles each file in isolation, emitting ASTs to
// a temporary file... The second analysis pass reads these temporary
// files, reassembles their ASTs, and constructs the CFG and call
// graph." The emitted form is a plain-text s-expression encoding; the
// paper reports emitted files "typically four or five times larger
// than the text representation" (experiment E8 measures ours).
//
// The form is stated once. A codec walks a node's fields in wire order,
// and the same walk writes them (EmitFile, and the hashes of hash.go)
// or reads them back (ReadFile): typeFields, declFields, stmtFields and
// exprFields have one case per node kind, and a head→constructor table
// per category picks the node a read fills.

import (
	"fmt"
	"slices"
	"strconv"
)

// EmitFile serializes a parsed translation unit.
func EmitFile(f *File) []byte {
	c := newWriter()
	for i := range f.Decls {
		c.decl(&f.Decls[i])
	}
	// The type definitions were numbered while the body was written, in
	// first-use order, so each refers only to ids already assigned.
	out := append(make([]byte, 0, len(c.buf)+len(f.Name)+64), "(xgcc-ast 1 "...)
	out = strconv.AppendQuote(out, f.Name)
	out = append(out, "\n(types\n"...)
	out = c.typeLines(out)
	out = append(out, ")\n"...)
	out = append(out, c.buf...)
	return append(out, ")\n"...)
}

// ReadFile deserializes an emitted translation unit. Malformed input
// yields an error naming the node and field that did not fit.
func ReadFile(data []byte) (*File, error) {
	s, err := parseSexpr(string(data))
	if err != nil {
		return nil, fmt.Errorf("malformed AST data: %w", err)
	}
	if s.head() != "xgcc-ast" {
		return nil, fmt.Errorf("not an emitted AST file (head %q)", s.head())
	}
	c := &codec{}
	f := &File{}
	c.within(s, func() {
		version := 0
		c.num(&version)
		if c.err == nil && version != 1 {
			c.fail("format version %d, want 1", version)
		}
		c.str(&f.Name)
		c.file = f.Name
		c.sub("types", c.readTypes)
		each(c, &f.Decls, c.decl)
	})
	if c.err != nil {
		return nil, c.err
	}
	return f, nil
}

// ---------------------------------------------------------------------------
// The codec
// ---------------------------------------------------------------------------

// codec is one walk over the emitted form. A writer (w) appends each
// field to buf, space-separated, and numbers types on first use. A
// reader consumes the current node's items (items[i:], items[0] being
// its head) and keeps the first error it meets; after it, every
// primitive is a no-op.
type codec struct {
	w bool

	buf  []byte
	ids  map[*Type]int
	defs [][]byte // defs[id] is "(t id ...)"

	items []*sexpr
	i     int
	types []*Type
	file  string
	err   error
}

func newWriter() *codec { return &codec{w: true, ids: map[*Type]int{}} }

// reset empties a writer for its next declaration or type, keeping its
// buffers: a Hasher's writer numbers every type afresh, as a new one
// would.
func (c *codec) reset() {
	clear(c.ids)
	c.defs = c.defs[:0]
	c.buf = c.buf[:0]
}

func (c *codec) fail(format string, args ...any) {
	if c.err == nil {
		c.err = fmt.Errorf("malformed AST data: (%s field %d: %s", c.items[0].Atom, c.i, fmt.Sprintf(format, args...))
	}
}

// next consumes the current node's next item; nil after an error or at
// the node's end, which is an error.
func (c *codec) next() *sexpr {
	if c.err != nil {
		return nil
	}
	if c.i == len(c.items) {
		c.fail("missing field")
		return nil
	}
	c.i++
	return c.items[c.i-1]
}

// within reads list s as the current node: f reads its items after the
// head, and an item f leaves unread is an error.
func (c *codec) within(s *sexpr, f func()) {
	if c.err != nil {
		return
	}
	items, i := c.items, c.i
	c.items, c.i = s.List, 1
	f()
	if c.err == nil && c.i < len(c.items) {
		c.fail("trailing field")
	}
	c.items, c.i = items, i
}

// head opens a node on write. On read the node's head has already
// picked its constructor.
func (c *codec) head(h string) *codec {
	if c.w {
		c.buf = append(append(c.buf, '('), h...)
	}
	return c
}

// opt reports whether a trailing optional field is there: on write
// whether it is set, on read whether the node has items left.
func (c *codec) opt(set bool) bool {
	if c.w {
		return set
	}
	return c.err == nil && c.i < len(c.items)
}

// atom reads a bare (unquoted) atom.
func (c *codec) atom() string {
	s := c.next()
	if s != nil && (s.isList() || s.Str) {
		c.fail("want an atom")
	}
	if c.err != nil {
		return ""
	}
	return s.Atom
}

// num lists an integer field.
func (c *codec) num(p any) *codec {
	switch p := p.(type) {
	case *int:
		number(c, p)
	case *int64:
		number(c, p)
	case *TokKind:
		v := int(*p)
		number(c, &v)
		if !c.w && c.err == nil && int(TokKind(v)) != v {
			c.fail("operator %d", v)
		}
		*p = TokKind(v)
	case *StorageClass:
		number(c, p)
	default:
		panic("cc: num of a field type with no wire form")
	}
	return c
}

func number[T ~int | ~int64](c *codec, p *T) {
	if c.w {
		c.buf = strconv.AppendInt(append(c.buf, ' '), int64(*p), 10)
		return
	}
	a := c.atom()
	v, err := strconv.ParseInt(a, 10, 64)
	if c.err == nil && err != nil {
		c.fail("want a number, got %q", a)
	}
	*p = T(v)
}

func (c *codec) flag(p *bool) *codec {
	v := 0
	if *p {
		v = 1
	}
	number(c, &v)
	if !c.w && c.err == nil {
		if v != 0 && v != 1 {
			c.fail("flag %d", v)
		}
		*p = v == 1
	}
	return c
}

func (c *codec) str(p *string) *codec {
	if c.w {
		c.buf = strconv.AppendQuote(append(c.buf, ' '), *p)
		return c
	}
	s := c.next()
	if s != nil && !s.Str {
		c.fail("want a string")
	}
	if c.err == nil {
		*p = s.Atom
	}
	return c
}

// pos lists a position's line and column; a read position is in the
// file being read.
func (c *codec) pos(p *Pos) *codec {
	number(c, &p.Line)
	number(c, &p.Col)
	if !c.w {
		p.File = c.file
	}
	return c
}

// typ lists a type by id (-1 for none).
func (c *codec) typ(p **Type) *codec {
	id := -1
	if c.w {
		id = c.typeID(*p)
	}
	number(c, &id)
	if c.w || c.err != nil {
		return c
	}
	if id < -1 || id >= len(c.types) {
		c.fail("undefined type id %d", id)
	} else if id >= 0 {
		*p = c.types[id]
	}
	return c
}

// each lists a trailing sequence: every element on write, and on read
// one element per remaining item (or group of items).
func each[T any](c *codec, list *[]T, f func(*T) *codec) {
	if c.w {
		for i := range *list {
			f(&(*list)[i])
		}
		return
	}
	var zero T
	for c.opt(false) {
		*list = append(*list, zero)
		f(&(*list)[len(*list)-1])
	}
}

// sub lists a nested list's fields under its head.
func (c *codec) sub(h string, f func()) *codec {
	if c.w {
		c.buf = append(c.buf, ' ')
		c.head(h)
		f()
		c.buf = append(c.buf, ')')
		return c
	}
	s := c.next()
	if c.err == nil && s.head() != h {
		c.fail("got (%s, want (%s", s.head(), h)
	}
	c.within(s, f)
	return c
}

// node writes *p, or reads the next item into it: the item's head picks
// a constructor from table, and fields lists the node either way.
func node[N any](c *codec, p *N, table map[string]func() N, fields func(N)) {
	if c.w {
		fields(*p)
		c.buf = append(c.buf, ')')
		return
	}
	s := c.next()
	if c.err != nil {
		return
	}
	mk, ok := table[s.head()]
	if !ok {
		c.fail("unknown node (%s", s.head())
		return
	}
	n := mk()
	c.within(s, func() { fields(n) })
	*p = n
}

func (c *codec) decl(p *Decl) *codec {
	node(c, p, declNodes, c.declFields)
	if c.w {
		c.buf = append(c.buf, '\n')
	}
	return c
}

// stmt lists a statement; a nil one is (nil).
func (c *codec) stmt(p *Stmt) *codec {
	if c.w {
		c.buf = append(c.buf, ' ')
	}
	node(c, p, stmtNodes, c.stmtFields)
	return c
}

// exprOrNil lists an expression that may be nil, as (nil).
func (c *codec) exprOrNil(p *Expr) *codec {
	if c.w {
		c.buf = append(c.buf, ' ')
	}
	node(c, p, exprNodes, c.exprFields)
	return c
}

func (c *codec) expr(p *Expr) *codec {
	c.exprOrNil(p)
	if !c.w && c.err == nil && *p == nil {
		c.fail("missing expression")
	}
	return c
}

// body lists a function body, which must be a block.
func (c *codec) body(p **CompoundStmt) {
	var s Stmt = *p
	c.stmt(&s)
	if !c.w && c.err == nil {
		b, ok := s.(*CompoundStmt)
		if !ok {
			c.fail("body is not a block")
		}
		*p = b
	}
}

// ---------------------------------------------------------------------------
// Types
// ---------------------------------------------------------------------------

// typeKinds names each TypeKind on the wire.
var typeKinds = [...]string{
	TypeUnknown: "unknown", TypeVoid: "void", TypeInt: "int", TypeFloat: "float",
	TypePointer: "ptr", TypeArray: "array", TypeFunc: "func", TypeStruct: "struct",
	TypeUnion: "union", TypeEnum: "enum", TypeNamed: "named",
}

// typeID numbers t on first use and writes its definition into its own
// slot, so a recursive type finds its id already assigned.
func (c *codec) typeID(t *Type) int {
	if t == nil {
		return -1
	}
	if id, ok := c.ids[t]; ok {
		return id
	}
	id := len(c.defs)
	c.ids[t] = id
	// A reset writer writes the definition into the buffer the id's
	// previous one left, if any.
	var def []byte
	if id < cap(c.defs) {
		def = c.defs[:id+1][id][:0]
	}
	if def == nil {
		def = make([]byte, 0, 32)
	}
	c.defs = append(c.defs, nil)
	body := c.buf
	c.buf = append(def, "(t"...)
	c.typeDef(id, t)
	c.defs[id] = append(c.buf, ')')
	c.buf = body
	return id
}

// typeLines appends the numbered type definitions, one a line.
func (c *codec) typeLines(out []byte) []byte {
	for _, d := range c.defs {
		out = append(append(out, d...), '\n')
	}
	return out
}

// readTypes reads the types section. Entry i defines id i, and every
// type is allocated before any is filled, so recursive types resolve.
func (c *codec) readTypes() {
	slab := make([]Type, len(c.items)-c.i)
	c.types = make([]*Type, len(slab))
	for i := range slab {
		c.types[i] = &slab[i]
	}
	for i, t := range c.types {
		c.sub("t", func() { c.typeDef(i, t) })
	}
}

// typeDef lists a type definition: its id, its kind, the kind's fields.
func (c *codec) typeDef(id int, t *Type) {
	got := id
	c.num(&got)
	if got != id {
		c.fail("type id %d, want %d", got, id)
	}
	if c.w {
		kind := ""
		if uint(t.Kind) < uint(len(typeKinds)) {
			kind = typeKinds[t.Kind]
		}
		c.buf = append(append(c.buf, ' '), kind...)
	} else if kind := c.atom(); c.err == nil {
		k := slices.Index(typeKinds[:], kind)
		if k < 0 {
			c.fail("unknown type kind %q", kind)
		}
		t.Kind = TypeKind(k)
	}
	c.typeFields(t)
}

func (c *codec) typeFields(t *Type) {
	switch t.Kind {
	case TypeInt:
		c.num(&t.Size).flag(&t.Unsigned)
	case TypeFloat:
		c.num(&t.Size)
	case TypePointer:
		c.typ(&t.Elem)
	case TypeArray:
		c.typ(&t.Elem).num(&t.ArrayLen)
	case TypeFunc:
		c.typ(&t.Ret).flag(&t.Variadic)
		each(c, &t.Params, c.typ)
	case TypeStruct, TypeUnion:
		c.str(&t.Tag)
		each(c, &t.Fields, func(f *Field) *codec { return c.str(&f.Name).typ(&f.Type) })
	case TypeEnum:
		c.str(&t.Tag)
		each(c, &t.Enums, func(e *EnumConst) *codec { return c.str(&e.Name).num(&e.Value) })
	case TypeNamed:
		c.str(&t.Name).typ(&t.Def)
	}
}

// ---------------------------------------------------------------------------
// Declarations, statements, expressions
// ---------------------------------------------------------------------------

var declNodes = map[string]func() Decl{
	"var":      func() Decl { return new(VarDecl) },
	"fn":       func() Decl { return new(FuncDecl) },
	"typedef":  func() Decl { return new(TypedefDecl) },
	"record":   func() Decl { return new(RecordDecl) },
	"enumdecl": func() Decl { return new(EnumDecl) },
}

func (c *codec) declFields(d Decl) {
	switch d := d.(type) {
	case *VarDecl:
		c.head("var").varFields(d)
	case *FuncDecl:
		c.head("fn").str(&d.Name).typ(&d.Result).flag(&d.Variadic).num(&d.Storage).str(&d.File).pos(&d.P)
		c.sub("params", func() {
			each(c, &d.Params, func(p **VarDecl) *codec {
				v := fill(p)
				return c.sub("p", func() { c.str(&v.Name).typ(&v.Type).pos(&v.P) })
			})
		})
		if c.opt(d.Body != nil) {
			c.body(&d.Body)
		}
	case *TypedefDecl:
		c.head("typedef").str(&d.Name).typ(&d.Type).pos(&d.P)
	case *RecordDecl:
		c.head("record").typ(&d.Type).pos(&d.P)
	case *EnumDecl:
		c.head("enumdecl").typ(&d.Type).pos(&d.P)
	}
}

// varFields lists a variable: a file-scope (var ...) and a local
// (v ...) alike.
func (c *codec) varFields(v *VarDecl) {
	c.str(&v.Name).typ(&v.Type).num(&v.Storage).pos(&v.P)
	if c.opt(v.Init != nil) {
		c.expr(&v.Init)
	}
}

// fill returns *p, allocating it for a read.
func fill[T any](p **T) *T {
	if *p == nil {
		*p = new(T)
	}
	return *p
}

var stmtNodes = map[string]func() Stmt{
	"nil":      func() Stmt { return nil },
	"es":       func() Stmt { return new(ExprStmt) },
	"ds":       func() Stmt { return new(DeclStmt) },
	"blk":      func() Stmt { return new(CompoundStmt) },
	"nop":      func() Stmt { return new(EmptyStmt) },
	"if":       func() Stmt { return new(IfStmt) },
	"while":    func() Stmt { return new(WhileStmt) },
	"do":       func() Stmt { return new(DoWhileStmt) },
	"for":      func() Stmt { return new(ForStmt) },
	"switch":   func() Stmt { return new(SwitchStmt) },
	"case":     func() Stmt { return new(CaseStmt) },
	"break":    func() Stmt { return new(BreakStmt) },
	"continue": func() Stmt { return new(ContinueStmt) },
	"return":   func() Stmt { return new(ReturnStmt) },
	"goto":     func() Stmt { return new(GotoStmt) },
	"label":    func() Stmt { return new(LabeledStmt) },
}

func (c *codec) stmtFields(s Stmt) {
	switch s := s.(type) {
	case *ExprStmt:
		// The statement is at its expression and carries no position.
		c.head("es").expr(&s.X)
		if !c.w && c.err == nil {
			s.P = s.X.Pos()
		}
	case *DeclStmt:
		c.head("ds").pos(&s.P)
		each(c, &s.Decls, func(p **VarDecl) *codec {
			v := fill(p)
			return c.sub("v", func() { c.varFields(v) })
		})
	case *CompoundStmt:
		c.head("blk").pos(&s.P)
		each(c, &s.List, c.stmt)
	case *EmptyStmt:
		c.head("nop").pos(&s.P)
	case *IfStmt:
		c.head("if").pos(&s.P).expr(&s.Cond).stmt(&s.Then)
		if c.opt(s.Else != nil) {
			c.stmt(&s.Else)
		}
	case *WhileStmt:
		c.head("while").pos(&s.P).expr(&s.Cond).stmt(&s.Body)
	case *DoWhileStmt:
		c.head("do").pos(&s.P).stmt(&s.Body).expr(&s.Cond)
	case *ForStmt:
		c.head("for").pos(&s.P).stmt(&s.Init).exprOrNil(&s.Cond).exprOrNil(&s.Post).stmt(&s.Body)
	case *SwitchStmt:
		c.head("switch").pos(&s.P).expr(&s.Tag).stmt(&s.Body)
	case *CaseStmt:
		c.head("case").pos(&s.P).exprOrNil(&s.Val).stmt(&s.Body)
	case *BreakStmt:
		c.head("break").pos(&s.P)
	case *ContinueStmt:
		c.head("continue").pos(&s.P)
	case *ReturnStmt:
		c.head("return").pos(&s.P)
		if c.opt(s.X != nil) {
			c.expr(&s.X)
		}
	case *GotoStmt:
		c.head("goto").str(&s.Label).pos(&s.P)
	case *LabeledStmt:
		c.head("label").str(&s.Label).pos(&s.P).stmt(&s.Body)
	default:
		c.head("nil")
	}
}

var exprNodes = map[string]func() Expr{
	"nil":      func() Expr { return nil },
	"id":       func() Expr { return new(Ident) },
	"i":        func() Expr { return new(IntLit) },
	"f":        func() Expr { return new(FloatLit) },
	"c":        func() Expr { return new(CharLit) },
	"s":        func() Expr { return new(StringLit) },
	"un":       func() Expr { return new(UnaryExpr) },
	"bin":      func() Expr { return new(BinaryExpr) },
	"asg":      func() Expr { return new(AssignExpr) },
	"cond":     func() Expr { return new(CondExpr) },
	"call":     func() Expr { return new(CallExpr) },
	"idx":      func() Expr { return new(IndexExpr) },
	"fld":      func() Expr { return new(FieldExpr) },
	"cast":     func() Expr { return new(CastExpr) },
	"sizeof-t": func() Expr { return new(SizeofExpr) },
	"sizeof":   func() Expr { return new(SizeofExpr) },
	"comma":    func() Expr { return new(CommaExpr) },
	"init":     func() Expr { return new(InitList) },
	"hole":     func() Expr { return new(HoleExpr) },
	"holeargs": func() Expr { return new(HoleArgs) },
}

func (c *codec) exprFields(e Expr) {
	switch e := e.(type) {
	case *Ident:
		c.head("id").str(&e.Name).pos(&e.P)
	case *IntLit:
		c.head("i").num(&e.Value).str(&e.Text).pos(&e.P)
	case *FloatLit:
		c.head("f").str(&e.Text).pos(&e.P)
	case *CharLit:
		c.head("c").str(&e.Text).pos(&e.P)
	case *StringLit:
		c.head("s").str(&e.Text).pos(&e.P)
	case *UnaryExpr:
		c.head("un").num(&e.Op).flag(&e.Postfix).pos(&e.P).expr(&e.X)
	case *BinaryExpr:
		c.head("bin").num(&e.Op).pos(&e.P).expr(&e.X).expr(&e.Y)
	case *AssignExpr:
		c.head("asg").num(&e.Op).pos(&e.P).expr(&e.LHS).expr(&e.RHS)
	case *CondExpr:
		c.head("cond").pos(&e.P).expr(&e.Cond).expr(&e.Then).expr(&e.Else)
	case *CallExpr:
		c.head("call").pos(&e.P).expr(&e.Fun)
		each(c, &e.Args, c.expr)
	case *IndexExpr:
		c.head("idx").pos(&e.P).expr(&e.X).expr(&e.Index)
	case *FieldExpr:
		c.head("fld").str(&e.Name).flag(&e.Arrow).pos(&e.P).expr(&e.X)
	case *CastExpr:
		c.head("cast").typ(&e.To).pos(&e.P).expr(&e.X)
	case *SizeofExpr:
		// sizeof(type) and sizeof expr are two heads of one node.
		if c.w && e.Type != nil || !c.w && c.items[0].Atom == "sizeof-t" {
			c.head("sizeof-t").typ(&e.Type).pos(&e.P)
			if e.Type == nil {
				c.fail("sizeof-t without a type")
			}
		} else {
			c.head("sizeof").pos(&e.P).expr(&e.X)
		}
	case *CommaExpr:
		c.head("comma").pos(&e.P)
		each(c, &e.List, c.expr)
	case *InitList:
		c.head("init").pos(&e.P)
		each(c, &e.List, c.expr)
	case *HoleExpr:
		c.head("hole").str(&e.Name).str(&e.Meta).typ(&e.CType).pos(&e.P)
	case *HoleArgs:
		c.head("holeargs").str(&e.Name).pos(&e.P)
	default:
		c.head("nil")
	}
}

// ---------------------------------------------------------------------------
// S-expressions
// ---------------------------------------------------------------------------

// sexpr is either an atom (Atom != "") or a list.
type sexpr struct {
	Atom string
	Str  bool // Atom was a quoted string
	List []*sexpr
}

func parseSexpr(src string) (*sexpr, error) {
	p := &sexprParser{src: src}
	p.skipSpace()
	s, err := p.parse()
	if err != nil {
		return nil, err
	}
	p.skipSpace()
	if p.off != len(p.src) {
		return nil, fmt.Errorf("trailing data at offset %d", p.off)
	}
	return s, nil
}

type sexprParser struct {
	src string
	off int
}

func (p *sexprParser) skipSpace() {
	for p.off < len(p.src) && (p.src[p.off] == ' ' || p.src[p.off] == '\n' || p.src[p.off] == '\t' || p.src[p.off] == '\r') {
		p.off++
	}
}

func (p *sexprParser) parse() (*sexpr, error) {
	if p.off >= len(p.src) {
		return nil, fmt.Errorf("unexpected end of AST data")
	}
	switch c := p.src[p.off]; {
	case c == '(':
		p.off++
		node := &sexpr{List: []*sexpr{}}
		for {
			p.skipSpace()
			if p.off >= len(p.src) {
				return nil, fmt.Errorf("unterminated list")
			}
			if p.src[p.off] == ')' {
				p.off++
				return node, nil
			}
			child, err := p.parse()
			if err != nil {
				return nil, err
			}
			node.List = append(node.List, child)
		}
	case c == '"':
		end := p.off + 1
		for end < len(p.src) {
			if p.src[end] == '\\' {
				end += 2
				continue
			}
			if p.src[end] == '"' {
				break
			}
			end++
		}
		if end >= len(p.src) {
			return nil, fmt.Errorf("unterminated string at %d", p.off)
		}
		raw := p.src[p.off : end+1]
		p.off = end + 1
		dec, err := strconv.Unquote(raw)
		if err != nil {
			return nil, fmt.Errorf("bad string %s: %v", raw, err)
		}
		return &sexpr{Atom: dec, Str: true}, nil
	default:
		start := p.off
		for p.off < len(p.src) {
			c := p.src[p.off]
			if c == ' ' || c == '\n' || c == '\t' || c == '\r' || c == '(' || c == ')' {
				break
			}
			p.off++
		}
		if p.off == start {
			return nil, fmt.Errorf("empty atom at %d", p.off)
		}
		return &sexpr{Atom: p.src[start:p.off]}, nil
	}
}

func (s *sexpr) isList() bool { return s.Atom == "" && !s.Str }

func (s *sexpr) head() string {
	if s.isList() && len(s.List) > 0 {
		return s.List[0].Atom
	}
	return ""
}
