package cc

import (
	"fmt"
	"slices"
	"strconv"
)

// Parser is a recursive-descent parser for the C subset. It tracks
// typedef names and enum constants in a scope stack so that the
// classic declaration/expression ambiguities resolve the way a C
// compiler resolves them.
type Parser struct {
	toks []Token
	pos  int
	file string

	// names is the scope stack: every typedef, tag and enum constant in
	// scope, innermost last, and marks[i] is where the i-th open block's
	// entries begin. latest indexes the innermost entry of each name;
	// an entry links the one it shadows, so closing a block restores
	// the index without a map or an object per block.
	names  []scopeEntry
	marks  []int
	latest [numNamespaces]map[string]int32

	// derivs is the stack of the declarators being parsed (a parameter's
	// sits above its function's). decls, stmts, args and params (a
	// parameter list's or a block declaration's) stack the lists under
	// construction the same way: each is copied into an array of its
	// exact size when it is complete.
	derivs []derivation
	decls  []Decl
	stmts  []Stmt
	args   []Expr
	params []*VarDecl

	// labels holds the labels of the function body being parsed: a
	// label may appear once per function (C11 6.8.1).
	labels []string
}

// popList returns (*stack)[start:] in an array of its own, nil when it
// is empty, and truncates the stack to start.
func popList[T any](stack *[]T, start int) []T {
	s := *stack
	if len(s) == start {
		return nil
	}
	out := make([]T, len(s)-start)
	copy(out, s[start:])
	clear(s[start:])
	*stack = s[:start]
	return out
}

// namespace is one of C's ordinary-identifier and tag name spaces, as
// far as the parser needs them.
type namespace uint8

const (
	nsTypedef namespace = iota
	nsTag
	nsEnum
	numNamespaces
)

type scopeEntry struct {
	name string
	typ  *Type // typedef or tag
	val  int64 // enum constant
	prev int32 // index of the entry this one shadows, or -1
	ns   namespace
}

// ParseError is a syntax error with position.
type ParseError struct {
	Pos Pos
	Msg string
}

func (e *ParseError) Error() string { return fmt.Sprintf("%s: %s", e.Pos, e.Msg) }

// NewParser returns a parser over the given token stream.
func NewParser(file string, toks []Token) *Parser {
	return &Parser{toks: toks, file: file}
}

// ParseFile lexes and parses a complete translation unit.
func ParseFile(file, src string) (*File, error) {
	toks, err := LexAll(file, src)
	if err != nil {
		return nil, err
	}
	p := NewParser(file, toks)
	return p.parseTranslationUnit()
}

// ParseExprString parses a single expression (used by tests and the
// pattern compiler). holes, if non-nil, maps identifier names to their
// hole declarations; matching identifiers parse as *HoleExpr.
func ParseExprString(src string) (Expr, error) {
	toks, err := LexAll("<expr>", src)
	if err != nil {
		return nil, err
	}
	p := NewParser("<expr>", toks)
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if p.cur().Kind != TokEOF {
		return nil, p.errf("trailing tokens after expression")
	}
	return e, nil
}

// ParseTypeString parses a C type name, e.g. "int *" or
// "struct foo *". The metal front end uses it for hole declarations
// with concrete C types.
func ParseTypeString(src string) (*Type, error) {
	toks, err := LexAll("<type>", src)
	if err != nil {
		return nil, err
	}
	p := NewParser("<type>", toks)
	t, err := p.parseTypeName()
	if err != nil {
		return nil, err
	}
	if p.cur().Kind != TokEOF {
		return nil, p.errf("trailing tokens after type name")
	}
	return t, nil
}

// ---------------------------------------------------------------------------
// Token plumbing
// ---------------------------------------------------------------------------

func (p *Parser) cur() Token { return p.toks[p.pos] }

func (p *Parser) la(n int) Token {
	if p.pos+n >= len(p.toks) {
		return p.toks[len(p.toks)-1]
	}
	return p.toks[p.pos+n]
}

func (p *Parser) next() Token {
	t := p.toks[p.pos]
	if t.Kind != TokEOF {
		p.pos++
	}
	return t
}

func (p *Parser) accept(k TokKind) bool {
	if p.cur().Kind == k {
		p.next()
		return true
	}
	return false
}

func (p *Parser) expect(k TokKind) (Token, error) {
	if p.cur().Kind == k {
		return p.next(), nil
	}
	return Token{}, p.errf("expected %s, found %s", k, p.cur())
}

// backtrack is where parseCastExpr and sizeof resume when a
// parenthesized type name does not parse: the token position and the
// depth of the argument stack, which a call in an array length that
// failed midway leaves entries on. (The other list stacks are popped on
// every path, or hold no list inside a type name.)
type backtrack struct{ pos, args int }

func (p *Parser) save() backtrack { return backtrack{p.pos, len(p.args)} }

func (p *Parser) restore(b backtrack) {
	p.pos = b.pos
	clear(p.args[b.args:])
	p.args = p.args[:b.args]
}

// at is the position of token t in the parser's file.
func (p *Parser) at(t Token) Pos { return Pos{File: p.file, Line: int(t.Line), Col: int(t.Col)} }

func (p *Parser) errf(format string, args ...interface{}) error {
	return &ParseError{Pos: p.at(p.cur()), Msg: fmt.Sprintf(format, args...)}
}

// ---------------------------------------------------------------------------
// Scopes
// ---------------------------------------------------------------------------

func (p *Parser) pushScope() { p.marks = append(p.marks, len(p.names)) }

func (p *Parser) popScope() {
	m := p.marks[len(p.marks)-1]
	p.marks = p.marks[:len(p.marks)-1]
	for i := len(p.names) - 1; i >= m; i-- {
		e := &p.names[i]
		if e.prev < 0 {
			delete(p.latest[e.ns], e.name)
		} else {
			p.latest[e.ns][e.name] = e.prev
		}
	}
	p.names = p.names[:m]
}

// declare adds a name to the innermost scope, shadowing any outer one.
func (p *Parser) declare(ns namespace, name string, t *Type, v int64) {
	idx := p.latest[ns]
	if idx == nil {
		idx = map[string]int32{}
		p.latest[ns] = idx
	}
	prev, ok := idx[name]
	if !ok {
		prev = -1
	}
	idx[name] = int32(len(p.names))
	p.names = append(p.names, scopeEntry{name: name, typ: t, val: v, prev: prev, ns: ns})
}

func (p *Parser) lookup(ns namespace, name string) (*scopeEntry, bool) {
	i, ok := p.latest[ns][name]
	if !ok {
		return nil, false
	}
	return &p.names[i], true
}

func (p *Parser) declareTypedef(name string, t *Type) { p.declare(nsTypedef, name, t, 0) }

func (p *Parser) lookupTypedef(name string) (*Type, bool) {
	if e, ok := p.lookup(nsTypedef, name); ok {
		return e.typ, true
	}
	return nil, false
}

func (p *Parser) declareTag(name string, t *Type) { p.declare(nsTag, name, t, 0) }

func (p *Parser) lookupTag(name string) (*Type, bool) {
	if e, ok := p.lookup(nsTag, name); ok {
		return e.typ, true
	}
	return nil, false
}

func (p *Parser) declareEnumConst(name string, v int64) { p.declare(nsEnum, name, nil, v) }

// ---------------------------------------------------------------------------
// Translation unit
// ---------------------------------------------------------------------------

func (p *Parser) parseTranslationUnit() (*File, error) {
	f := &File{Name: p.file}
	for p.cur().Kind != TokEOF {
		if p.accept(TokSemi) {
			continue // stray semicolon
		}
		if err := p.parseExternalDecl(); err != nil {
			return nil, err
		}
	}
	f.Decls = popList(&p.decls, 0)
	return f, nil
}

// parseExternalDecl parses one external declaration: a function
// definition, or a declaration possibly declaring several names. It
// pushes what it declares on p.decls.
func (p *Parser) parseExternalDecl() error {
	startPos := p.at(p.cur())
	storage, base, err := p.parseDeclSpecifiers()
	if err != nil {
		return err
	}
	// Tag-only declaration: "struct foo { ... };" or "enum e {...};".
	if p.cur().Kind == TokSemi {
		p.next()
		switch base.Underlying().Kind {
		case TypeStruct, TypeUnion:
			p.decls = append(p.decls, &RecordDecl{P: startPos, Type: base})
		case TypeEnum:
			p.decls = append(p.decls, &EnumDecl{P: startPos, Type: base})
		}
		return nil
	}

	first := true
	for {
		declPos := p.at(p.cur())
		d, t, err := p.parseNamedDeclarator(base)
		if err != nil {
			return err
		}
		name, params, variadic := d.name, d.params, d.variadic
		if name == "" {
			return p.errf("expected a declarator name")
		}

		if first && d.isFunc && p.cur().Kind == TokLBrace {
			// Function definition.
			fd := &FuncDecl{
				P:        declPos,
				Name:     name,
				Result:   t.Ret,
				Params:   params,
				Variadic: variadic,
				Storage:  storage,
				File:     p.file,
			}
			p.labels = p.labels[:0]
			p.pushScope()
			body, err := p.parseCompoundStmt()
			p.popScope()
			if err != nil {
				return err
			}
			fd.Body = body
			p.decls = append(p.decls, fd)
			return nil
		}
		first = false

		if storage == StorageTypedef {
			named := &Type{Kind: TypeNamed, Name: name, Def: t}
			p.declareTypedef(name, named)
			p.decls = append(p.decls, &TypedefDecl{P: declPos, Name: name, Type: named})
		} else if d.isFunc {
			p.decls = append(p.decls, &FuncDecl{
				P: declPos, Name: name, Result: t.Ret, Params: params,
				Variadic: variadic, Storage: storage, File: p.file,
			})
		} else {
			vd := &VarDecl{P: declPos, Name: name, Type: t, Storage: storage}
			if p.accept(TokAssign) {
				init, err := p.parseInitializer()
				if err != nil {
					return err
				}
				vd.Init = init
			}
			p.decls = append(p.decls, vd)
		}

		if p.accept(TokComma) {
			continue
		}
		_, err = p.expect(TokSemi)
		return err
	}
}

// ---------------------------------------------------------------------------
// Declaration specifiers
// ---------------------------------------------------------------------------

// startsDeclSpecifiers reports whether the current token can begin
// declaration specifiers.
func (p *Parser) startsDeclSpecifiers() bool {
	switch p.cur().Kind {
	case TokAuto, TokRegister, TokStatic, TokExtern, TokTypedef, TokInline,
		TokConst, TokVolatile,
		TokVoid, TokChar, TokShort, TokInt, TokLong, TokFloat, TokDouble,
		TokSigned, TokUnsigned, TokStruct, TokUnion, TokEnum:
		return true
	case TokIdent:
		_, ok := p.lookupTypedef(p.cur().Text)
		return ok
	}
	return false
}

// parseDeclSpecifiers parses storage-class specifiers, type
// specifiers, and qualifiers, returning the storage class and the base
// type.
func (p *Parser) parseDeclSpecifiers() (StorageClass, *Type, error) {
	storage := StorageNone
	var (
		sawVoid, sawChar, sawShort, sawLong, sawLongLong  bool
		sawInt, sawFloat, sawDouble, sawSigned, sawUnsign bool
		isConst, isVolatile                               bool
		complexType                                       *Type
	)
	seenAny := false
	for {
		t := p.cur()
		switch t.Kind {
		case TokAuto, TokRegister, TokStatic, TokExtern, TokTypedef:
			sc := storageOf(t.Kind)
			if storage != StorageNone && storage != sc {
				return 0, nil, p.errf("conflicting storage classes")
			}
			storage = sc
			p.next()
		case TokInline:
			p.next() // accepted, ignored
		case TokConst:
			isConst = true
			p.next()
		case TokVolatile:
			isVolatile = true
			p.next()
		case TokVoid:
			sawVoid = true
			seenAny = true
			p.next()
		case TokChar:
			sawChar = true
			seenAny = true
			p.next()
		case TokShort:
			sawShort = true
			seenAny = true
			p.next()
		case TokInt:
			sawInt = true
			seenAny = true
			p.next()
		case TokLong:
			if sawLong {
				sawLongLong = true
			}
			sawLong = true
			seenAny = true
			p.next()
		case TokFloat:
			sawFloat = true
			seenAny = true
			p.next()
		case TokDouble:
			sawDouble = true
			seenAny = true
			p.next()
		case TokSigned:
			sawSigned = true
			seenAny = true
			p.next()
		case TokUnsigned:
			sawUnsign = true
			seenAny = true
			p.next()
		case TokStruct, TokUnion:
			if seenAny || complexType != nil {
				return 0, nil, p.errf("unexpected %s in declaration specifiers", t.Kind)
			}
			rt, err := p.parseRecordSpecifier()
			if err != nil {
				return 0, nil, err
			}
			complexType = rt
			seenAny = true
		case TokEnum:
			if complexType != nil {
				return 0, nil, p.errf("unexpected enum in declaration specifiers")
			}
			et, err := p.parseEnumSpecifier()
			if err != nil {
				return 0, nil, err
			}
			complexType = et
			seenAny = true
		case TokIdent:
			// A typedef name is a type specifier only if we have no
			// other type specifier yet.
			if !seenAny && complexType == nil {
				if td, ok := p.lookupTypedef(t.Text); ok {
					complexType = td
					seenAny = true
					p.next()
					continue
				}
			}
			goto done
		default:
			goto done
		}
	}
done:
	if !seenAny {
		return 0, nil, p.errf("expected type specifier, found %s", p.cur())
	}
	var base *Type
	switch {
	case complexType != nil:
		base = complexType
	case sawVoid:
		base = TypeVoidV
	case sawFloat:
		base = TypeFloatV
	case sawDouble:
		base = TypeDoubleV
	case sawChar:
		if sawUnsign {
			base = TypeUCharV
		} else {
			base = TypeCharV
		}
	case sawShort:
		base = &Type{Kind: TypeInt, Size: 2, Unsigned: sawUnsign}
	case sawLongLong || sawLong:
		base = &Type{Kind: TypeInt, Size: 8, Unsigned: sawUnsign}
	case sawInt || sawSigned || sawUnsign:
		base = &Type{Kind: TypeInt, Size: 4, Unsigned: sawUnsign}
	default:
		base = TypeIntV
	}
	if isConst || isVolatile {
		cp := *base
		cp.Const = isConst
		cp.Volatile = isVolatile
		base = &cp
	}
	return storage, base, nil
}

func storageOf(k TokKind) StorageClass {
	switch k {
	case TokAuto:
		return StorageAuto
	case TokRegister:
		return StorageRegister
	case TokStatic:
		return StorageStatic
	case TokExtern:
		return StorageExtern
	}
	return StorageTypedef
}

// parseRecordSpecifier parses struct/union specifiers.
func (p *Parser) parseRecordSpecifier() (*Type, error) {
	kw := p.next() // struct or union
	kind := TypeStruct
	if kw.Kind == TokUnion {
		kind = TypeUnion
	}
	tag := ""
	if p.cur().Kind == TokIdent {
		tag = p.next().Text
	}
	if p.cur().Kind != TokLBrace {
		if tag == "" {
			return nil, p.errf("expected struct tag or body")
		}
		if t, ok := p.lookupTag(tag); ok && t.Underlying().Kind == kind {
			return t, nil
		}
		// Forward reference: create an incomplete record and register
		// it so that a later definition fills it in.
		t := &Type{Kind: kind, Tag: tag}
		p.declareTag(tag, t)
		return t, nil
	}
	// Definition.
	var t *Type
	if tag != "" {
		if prev, ok := p.lookupTag(tag); ok && prev.Kind == kind && prev.Fields == nil {
			t = prev // complete a forward declaration in place
		}
	}
	if t == nil {
		t = &Type{Kind: kind, Tag: tag}
		if tag != "" {
			p.declareTag(tag, t)
		}
	}
	p.next() // {
	for p.cur().Kind != TokRBrace {
		_, base, err := p.parseDeclSpecifiers()
		if err != nil {
			return nil, err
		}
		for {
			d, ft, err := p.parseNamedDeclarator(base)
			if err != nil {
				return nil, err
			}
			// Bit-fields: accept and ignore the width.
			if p.accept(TokColon) {
				if _, err := p.parseCondExpr(); err != nil {
					return nil, err
				}
			}
			t.Fields = append(t.Fields, Field{Name: d.name, Type: ft})
			if !p.accept(TokComma) {
				break
			}
		}
		if _, err := p.expect(TokSemi); err != nil {
			return nil, err
		}
	}
	p.next() // }
	return t, nil
}

// parseEnumSpecifier parses enum specifiers and registers enumerators.
func (p *Parser) parseEnumSpecifier() (*Type, error) {
	p.next() // enum
	tag := ""
	if p.cur().Kind == TokIdent {
		tag = p.next().Text
	}
	if p.cur().Kind != TokLBrace {
		if tag == "" {
			return nil, p.errf("expected enum tag or body")
		}
		if t, ok := p.lookupTag(tag); ok && t.Underlying().Kind == TypeEnum {
			return t, nil
		}
		t := &Type{Kind: TypeEnum, Tag: tag}
		p.declareTag(tag, t)
		return t, nil
	}
	t := &Type{Kind: TypeEnum, Tag: tag}
	if tag != "" {
		p.declareTag(tag, t)
	}
	p.next() // {
	var nextVal int64
	for p.cur().Kind != TokRBrace {
		nameTok, err := p.expect(TokIdent)
		if err != nil {
			return nil, err
		}
		val := nextVal
		if p.accept(TokAssign) {
			e, err := p.parseCondExpr()
			if err != nil {
				return nil, err
			}
			if v, ok := p.constEval(e); ok {
				val = v
			}
		}
		t.Enums = append(t.Enums, EnumConst{Name: nameTok.Text, Value: val})
		p.declareEnumConst(nameTok.Text, val)
		nextVal = val + 1
		if !p.accept(TokComma) {
			break
		}
	}
	if _, err := p.expect(TokRBrace); err != nil {
		return nil, err
	}
	return t, nil
}

// ---------------------------------------------------------------------------
// Declarators
// ---------------------------------------------------------------------------

// declarator is what a declarator names: the declared name ("" when
// abstract) and, when the outermost derivation is a function, the
// parsed parameter declarations. The derivations from the base type
// sit on the parser's derivs stack while it is parsed.
type declarator struct {
	name     string
	params   []*VarDecl
	variadic bool
	isFunc   bool // outermost derivation is a function
}

// derivation is one step of a declarator's type: a pointer to, an
// array of, or a function returning the type before it.
type derivation struct {
	kind     TypeKind // TypePointer, TypeArray or TypeFunc
	n        int64    // array length
	params   []*Type
	variadic bool
}

// parseNamedDeclarator parses a (possibly abstract) declarator and
// returns it with the type it gives base.
func (p *Parser) parseNamedDeclarator(base *Type) (declarator, *Type, error) {
	start := len(p.derivs)
	d, err := p.parseDeclaratorRec()
	// The derivations were pushed in source order, so the one nearest
	// the base type is last.
	t := base
	for i := len(p.derivs) - 1; err == nil && i >= start; i-- {
		switch dv := p.derivs[i]; dv.kind {
		case TypePointer:
			t = PointerTo(t)
		case TypeArray:
			t = &Type{Kind: TypeArray, Elem: t, ArrayLen: dv.n}
		default:
			t = &Type{Kind: TypeFunc, Ret: t, Params: dv.params, Variadic: dv.variadic}
		}
	}
	clear(p.derivs[start:])
	p.derivs = p.derivs[:start]
	return d, t, err
}

func (p *Parser) parseDeclaratorRec() (declarator, error) {
	// Pointer prefix. The star binds to the base type: "T *f(args)"
	// declares a function returning T* (isFunc is preserved), while
	// "T (*fp)(args)" declares a pointer variable (the parenthesized
	// direct declarator already cleared isFunc).
	if p.accept(TokStar) {
		for p.cur().Kind == TokConst || p.cur().Kind == TokVolatile {
			p.next()
		}
		d, err := p.parseDeclaratorRec()
		p.derivs = append(p.derivs, derivation{kind: TypePointer})
		return d, err
	}
	return p.parseDirectDeclarator()
}

func (p *Parser) parseDirectDeclarator() (declarator, error) {
	var d declarator
	parenthesized := false
	switch {
	case p.cur().Kind == TokIdent:
		d.name = p.next().Text
	case p.cur().Kind == TokLParen && p.parenStartsDeclarator():
		p.next()
		inner, err := p.parseDeclaratorRec()
		if err != nil {
			return d, err
		}
		if _, err := p.expect(TokRParen); err != nil {
			return d, err
		}
		d = inner
		// A parenthesized inner declarator (e.g. (*f)(int)) declares a
		// function pointer, not a function.
		d.isFunc = false
		parenthesized = true
	default:
		// Abstract declarator with no name: fine, fall through to
		// suffixes (or no suffixes at all).
	}

	// Suffixes, each pushed after the inner declarator's derivations.
	for first := true; ; first = false {
		switch p.cur().Kind {
		case TokLBracket:
			p.next()
			length := int64(-1)
			if p.cur().Kind != TokRBracket {
				e, err := p.parseAssignExpr()
				if err != nil {
					return d, err
				}
				if v, ok := p.constEval(e); ok {
					length = v
				}
			}
			if _, err := p.expect(TokRBracket); err != nil {
				return d, err
			}
			p.derivs = append(p.derivs, derivation{kind: TypeArray, n: length})
		case TokLParen:
			p.next()
			params, types, variadic, err := p.parseParamList()
			if err != nil {
				return d, err
			}
			if _, err := p.expect(TokRParen); err != nil {
				return d, err
			}
			if first && !parenthesized {
				d.isFunc = true
				d.params = params
				d.variadic = variadic
			}
			p.derivs = append(p.derivs, derivation{kind: TypeFunc, params: types, variadic: variadic})
		default:
			return d, nil
		}
	}
}

// parenStartsDeclarator disambiguates "(" beginning a parenthesized
// declarator (e.g. (*f)(int)) from "(" beginning a parameter list.
func (p *Parser) parenStartsDeclarator() bool {
	nxt := p.la(1)
	switch nxt.Kind {
	case TokStar, TokLParen:
		return true
	case TokIdent:
		// "(name)" is a declarator only if name is not a typedef name.
		_, isType := p.lookupTypedef(nxt.Text)
		return !isType
	}
	return false
}

// parseParamList parses a function parameter list (without parens).
func (p *Parser) parseParamList() ([]*VarDecl, []*Type, bool, error) {
	start := len(p.params)
	defer func() { clear(p.params[start:]); p.params = p.params[:start] }()
	variadic := false
	if p.cur().Kind == TokRParen {
		return nil, nil, false, nil
	}
	// "(void)" means no parameters.
	if p.cur().Kind == TokVoid && p.la(1).Kind == TokRParen {
		p.next()
		return nil, nil, false, nil
	}
	for {
		if p.cur().Kind == TokEllipsis {
			p.next()
			variadic = true
			break
		}
		declPos := p.at(p.cur())
		_, base, err := p.parseDeclSpecifiers()
		if err != nil {
			return nil, nil, false, err
		}
		d, t, err := p.parseNamedDeclarator(base)
		if err != nil {
			return nil, nil, false, err
		}
		// Array parameters decay to pointers.
		if t.Underlying().Kind == TypeArray {
			t = PointerTo(t.Underlying().Elem)
		}
		p.params = append(p.params, &VarDecl{P: declPos, Name: d.name, Type: t})
		if !p.accept(TokComma) {
			break
		}
	}
	decls := popList(&p.params, start)
	var types []*Type
	if decls != nil {
		types = make([]*Type, len(decls))
		for i, d := range decls {
			types[i] = d.Type
		}
	}
	return decls, types, variadic, nil
}

// parseTypeName parses a type-name (as in casts and sizeof).
func (p *Parser) parseTypeName() (*Type, error) {
	_, base, err := p.parseDeclSpecifiers()
	if err != nil {
		return nil, err
	}
	d, t, err := p.parseNamedDeclarator(base)
	if err != nil {
		return nil, err
	}
	if d.name != "" {
		return nil, p.errf("unexpected identifier %q in type name", d.name)
	}
	return t, nil
}

// ---------------------------------------------------------------------------
// Statements
// ---------------------------------------------------------------------------

func (p *Parser) parseCompoundStmt() (*CompoundStmt, error) {
	lb, err := p.expect(TokLBrace)
	if err != nil {
		return nil, err
	}
	cs := &CompoundStmt{P: p.at(lb)}
	p.pushScope()
	defer p.popScope()
	start := len(p.stmts)
	for p.cur().Kind != TokRBrace {
		if p.cur().Kind == TokEOF {
			return nil, p.errf("unexpected EOF in block")
		}
		s, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		p.stmts = append(p.stmts, s)
	}
	p.next() // }
	cs.List = popList(&p.stmts, start)
	return cs, nil
}

func (p *Parser) parseStmt() (Stmt, error) {
	t := p.cur()
	switch t.Kind {
	case TokLBrace:
		return p.parseCompoundStmt()
	case TokSemi:
		p.next()
		return &EmptyStmt{P: p.at(t)}, nil
	case TokIf:
		p.next()
		if _, err := p.expect(TokLParen); err != nil {
			return nil, err
		}
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokRParen); err != nil {
			return nil, err
		}
		then, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		var els Stmt
		if p.accept(TokElse) {
			els, err = p.parseStmt()
			if err != nil {
				return nil, err
			}
		}
		return &IfStmt{P: p.at(t), Cond: cond, Then: then, Else: els}, nil
	case TokWhile:
		p.next()
		if _, err := p.expect(TokLParen); err != nil {
			return nil, err
		}
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokRParen); err != nil {
			return nil, err
		}
		body, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		return &WhileStmt{P: p.at(t), Cond: cond, Body: body}, nil
	case TokDo:
		p.next()
		body, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokWhile); err != nil {
			return nil, err
		}
		if _, err := p.expect(TokLParen); err != nil {
			return nil, err
		}
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokRParen); err != nil {
			return nil, err
		}
		if _, err := p.expect(TokSemi); err != nil {
			return nil, err
		}
		return &DoWhileStmt{P: p.at(t), Body: body, Cond: cond}, nil
	case TokFor:
		p.next()
		if _, err := p.expect(TokLParen); err != nil {
			return nil, err
		}
		fs := &ForStmt{P: p.at(t)}
		p.pushScope()
		defer p.popScope()
		if !p.accept(TokSemi) {
			if p.startsDeclSpecifiers() {
				ds, err := p.parseBlockDecl()
				if err != nil {
					return nil, err
				}
				fs.Init = ds
			} else {
				e, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				fs.Init = &ExprStmt{P: e.Pos(), X: e}
				if _, err := p.expect(TokSemi); err != nil {
					return nil, err
				}
			}
		}
		if p.cur().Kind != TokSemi {
			cond, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			fs.Cond = cond
		}
		if _, err := p.expect(TokSemi); err != nil {
			return nil, err
		}
		if p.cur().Kind != TokRParen {
			post, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			fs.Post = post
		}
		if _, err := p.expect(TokRParen); err != nil {
			return nil, err
		}
		body, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		fs.Body = body
		return fs, nil
	case TokSwitch:
		p.next()
		if _, err := p.expect(TokLParen); err != nil {
			return nil, err
		}
		tag, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokRParen); err != nil {
			return nil, err
		}
		body, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		return &SwitchStmt{P: p.at(t), Tag: tag, Body: body}, nil
	case TokCase:
		p.next()
		val, err := p.parseCondExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokColon); err != nil {
			return nil, err
		}
		body, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		return &CaseStmt{P: p.at(t), Val: val, Body: body}, nil
	case TokDefault:
		p.next()
		if _, err := p.expect(TokColon); err != nil {
			return nil, err
		}
		body, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		return &CaseStmt{P: p.at(t), Val: nil, Body: body}, nil
	case TokBreak:
		p.next()
		if _, err := p.expect(TokSemi); err != nil {
			return nil, err
		}
		return &BreakStmt{P: p.at(t)}, nil
	case TokContinue:
		p.next()
		if _, err := p.expect(TokSemi); err != nil {
			return nil, err
		}
		return &ContinueStmt{P: p.at(t)}, nil
	case TokReturn:
		p.next()
		rs := &ReturnStmt{P: p.at(t)}
		if p.cur().Kind != TokSemi {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			rs.X = e
		}
		if _, err := p.expect(TokSemi); err != nil {
			return nil, err
		}
		return rs, nil
	case TokGoto:
		p.next()
		lbl, err := p.expect(TokIdent)
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokSemi); err != nil {
			return nil, err
		}
		return &GotoStmt{P: p.at(t), Label: lbl.Text}, nil
	case TokIdent:
		// Label?
		if p.la(1).Kind == TokColon {
			if slices.Contains(p.labels, t.Text) {
				return nil, p.errf("duplicate label %s", t.Text)
			}
			name := p.next().Text
			p.labels = append(p.labels, name)
			p.next() // :
			body, err := p.parseStmt()
			if err != nil {
				return nil, err
			}
			return &LabeledStmt{P: p.at(t), Label: name, Body: body}, nil
		}
	}
	if p.startsDeclSpecifiers() {
		return p.parseBlockDecl()
	}
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokSemi); err != nil {
		return nil, err
	}
	return &ExprStmt{P: e.Pos(), X: e}, nil
}

// parseBlockDecl parses a block-scope declaration statement (including
// the trailing semicolon).
func (p *Parser) parseBlockDecl() (*DeclStmt, error) {
	startPos := p.at(p.cur())
	storage, base, err := p.parseDeclSpecifiers()
	if err != nil {
		return nil, err
	}
	ds := &DeclStmt{P: startPos}
	if p.accept(TokSemi) {
		return ds, nil // struct/enum definition with no declarator
	}
	start := len(p.params)
	defer func() { clear(p.params[start:]); p.params = p.params[:start] }()
	for {
		declPos := p.at(p.cur())
		d, t, err := p.parseNamedDeclarator(base)
		if err != nil {
			return nil, err
		}
		name := d.name
		if name == "" {
			return nil, p.errf("expected a declarator name")
		}
		if storage == StorageTypedef {
			named := &Type{Kind: TypeNamed, Name: name, Def: t}
			p.declareTypedef(name, named)
			if !p.accept(TokComma) {
				break
			}
			continue
		}
		vd := &VarDecl{P: declPos, Name: name, Type: t, Storage: storage}
		if p.accept(TokAssign) {
			init, err := p.parseInitializer()
			if err != nil {
				return nil, err
			}
			vd.Init = init
		}
		p.params = append(p.params, vd)
		if !p.accept(TokComma) {
			break
		}
	}
	ds.Decls = popList(&p.params, start)
	if _, err := p.expect(TokSemi); err != nil {
		return nil, err
	}
	return ds, nil
}

func (p *Parser) parseInitializer() (Expr, error) {
	if p.cur().Kind == TokLBrace {
		lb := p.next()
		il := &InitList{P: p.at(lb)}
		for p.cur().Kind != TokRBrace {
			e, err := p.parseInitializer()
			if err != nil {
				return nil, err
			}
			il.List = append(il.List, e)
			if !p.accept(TokComma) {
				break
			}
		}
		if _, err := p.expect(TokRBrace); err != nil {
			return nil, err
		}
		return il, nil
	}
	return p.parseAssignExpr()
}

// ---------------------------------------------------------------------------
// Expressions
// ---------------------------------------------------------------------------

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
		return &AssignExpr{P: lhs.Pos(), Op: op, LHS: lhs, RHS: rhs}, nil
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
	return &CondExpr{P: cond.Pos(), Cond: cond, Then: then, Else: els}, nil
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
		lhs = &BinaryExpr{P: lhs.Pos(), Op: op, X: lhs, Y: rhs}
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
		_, ok := p.lookupTypedef(p.cur().Text)
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
				return &CastExpr{P: p.at(lp), To: t, X: x}, nil
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
		return &UnaryExpr{P: p.at(t), Op: t.Kind, X: x}, nil
	case TokAmp, TokStar, TokPlus, TokMinus, TokTilde, TokNot:
		p.next()
		x, err := p.parseCastExpr()
		if err != nil {
			return nil, err
		}
		return &UnaryExpr{P: p.at(t), Op: t.Kind, X: x}, nil
	case TokSizeof:
		p.next()
		if p.cur().Kind == TokLParen {
			save := p.save()
			p.next()
			if p.startsTypeName() {
				tn, err := p.parseTypeName()
				if err == nil && p.cur().Kind == TokRParen {
					p.next()
					return &SizeofExpr{P: p.at(t), Type: tn}, nil
				}
			}
			p.restore(save)
		}
		x, err := p.parseUnaryExpr()
		if err != nil {
			return nil, err
		}
		return &SizeofExpr{P: p.at(t), X: x}, nil
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
			call := &CallExpr{P: e.Pos(), Fun: e}
			start := len(p.args)
			for p.cur().Kind != TokRParen {
				arg, err := p.parseAssignExpr()
				if err != nil {
					return nil, err
				}
				p.args = append(p.args, arg)
				if !p.accept(TokComma) {
					break
				}
			}
			call.Args = popList(&p.args, start)
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
			e = &IndexExpr{P: e.Pos(), X: e, Index: idx}
		case TokDot, TokArrow:
			p.next()
			name, err := p.expect(TokIdent)
			if err != nil {
				return nil, err
			}
			e = &FieldExpr{P: e.Pos(), X: e, Name: name.Text, Arrow: t.Kind == TokArrow}
		case TokInc, TokDec:
			p.next()
			e = &UnaryExpr{P: e.Pos(), Op: t.Kind, X: e, Postfix: true}
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
		return &Ident{P: p.at(t), Name: t.Text}, nil
	case TokIntLit:
		p.next()
		v := parseIntText(t.Text)
		return &IntLit{P: p.at(t), Text: t.Text, Value: v}, nil
	case TokFloatLit:
		p.next()
		return &FloatLit{P: p.at(t), Text: t.Text}, nil
	case TokCharLit:
		p.next()
		return &CharLit{P: p.at(t), Text: t.Text}, nil
	case TokStringLit:
		p.next()
		// Adjacent string literals concatenate.
		text := t.Text
		for p.cur().Kind == TokStringLit {
			text += p.next().Text
		}
		return &StringLit{P: p.at(t), Text: text}, nil
	case TokLParen:
		p.next()
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokRParen); err != nil {
			return nil, err
		}
		return e, nil // parens folded away
	}
	return nil, p.errf("expected expression, found %s", t)
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
