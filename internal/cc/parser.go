package cc

import "fmt"

// Parser is a recursive-descent parser for the C subset. It tracks
// typedef names and enum constants in a scope stack so that the
// classic declaration/expression ambiguities resolve the way a C
// compiler resolves them.
type Parser struct {
	toks []Token
	pos  int
	file string
	src  string // what toks were lexed from: their text

	// names is the scope stack: every typedef, tag and enum constant in
	// scope, innermost last, and marks[i] is where the i-th open block's
	// entries begin. latest indexes the innermost entry of each name;
	// an entry links the one it shadows, so closing a block restores
	// the index without a map or an object per block.
	names  []scopeEntry
	marks  []int
	latest [numNamespaces]map[string]int32

	// The stacks of the declarators and lists being parsed, which an
	// arena lends (stacks).
	stacks

	// labels holds the labels of the function body being parsed: a
	// label may appear once per function (C11 6.8.1).
	labels []string

	// With skim, pass 1 skims each function body it can for ParseBody
	// to parse later (decl.go). While a skimmed body is parsed, the
	// file-scope entries from horizon to fileEnd are hidden: they were
	// declared after the definition. unparsed counts the skimmed bodies
	// ParseBody has yet to parse; the last one drops the tokens and the
	// scope stack.
	skim             bool
	horizon, fileEnd int32
	unparsed         int32
	sk               skimmer

	// arena is the pass's, set for the length of a call that parses
	// declarations or bodies (arena.go, useArena).
	arena *Arena
}

// stacks are a parser's scratch. derivs is the stack of the declarators
// being parsed (a parameter's sits above its function's). decls, stmts,
// args and params (a parameter list's or a block declaration's) stack
// the lists under construction the same way: each is copied into an
// array of its exact size when it is complete. Between parses they are
// the arena's, so a pass grows them once, not once a file.
type stacks struct {
	derivs []derivation
	decls  []Decl
	stmts  []Stmt
	args   []Expr
	params []*VarDecl
}

// useArena gives the parser the arena a for one call that parses, with
// the stacks and skim scratch the arena holds; releaseArena hands them
// back, emptied, so nothing a failed parse left on them stays
// reachable.
func (p *Parser) useArena(a *Arena) {
	p.arena = a
	if a != nil {
		p.stacks, a.stacks = a.stacks, stacks{}
		p.sk, a.sk = a.sk, skimmer{}
	}
}

func (p *Parser) releaseArena() {
	a := p.arena
	p.arena = nil
	if a == nil {
		return
	}
	st, sk := &p.stacks, &p.sk
	st.derivs, st.decls, st.stmts = emptied(st.derivs), emptied(st.decls), emptied(st.stmts)
	st.args, st.params = emptied(st.args), emptied(st.params)
	sk.calls, sk.labels, sk.gotos = emptied(sk.calls), emptied(sk.labels), emptied(sk.gotos)
	a.stacks, p.stacks = p.stacks, stacks{}
	a.sk, p.sk = p.sk, skimmer{}
}

// emptied clears s up to its length and truncates it.
func emptied[T any](s []T) []T {
	clear(s)
	return s[:0]
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

// newParser returns a parser over toks, lexed from src.
func newParser(file, src string, toks []Token) *Parser {
	return &Parser{toks: toks, file: file, src: src}
}

// ParseFile lexes and parses a complete translation unit, every body in
// place: no skim, so it is the whole-file reference pass 1 is held to.
// Its error is the first in source order. The declarations and bodies
// are carved from an arena of the call's own.
func ParseFile(file, src string) (*File, error) { return parseFile(new(Arena), file, src, false) }

// ParseExprString parses src as one C expression: a pattern's
// template, a callout's or an action's call, a stored object
// expression.
func ParseExprString(src string) (Expr, error) {
	toks, err := LexAll("<expr>", src)
	if err != nil {
		return nil, err
	}
	p := newParser("<expr>", src, toks)
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
	p := newParser("<type>", src, toks)
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
	return Token{}, p.errf("expected %s, found %s", k, p.cur().describe(p.src))
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

// text is token t's text.
func (p *Parser) text(t Token) string { return t.Text(p.src) }

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
	for ok && i >= p.horizon && i < p.fileEnd {
		i = p.names[i].prev
		ok = i >= 0
	}
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
	f.Decls = popList(p, &p.decls, 0)
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
	if p.accept(TokSemi) {
		switch base.Underlying().Kind {
		case TypeStruct, TypeUnion:
			p.decls = append(p.decls, &RecordDecl{P: startPos, Type: base})
		case TypeEnum:
			p.decls = append(p.decls, &EnumDecl{P: startPos, Type: base})
		}
		return nil
	}
	return p.initDeclarators(storage, base, true)
}

// initDeclarators parses the init-declarator list after a declaration's
// specifiers, through its semicolon; every declarator must be named. A
// typedef declares its name, and emits a TypedefDecl at file scope. At
// file scope a function declarator is a FuncDecl, and the first one,
// when "{" follows it, is a definition that ends the declaration. Every
// other declarator is a VarDecl, a block's local prototype included.
// File-scope decls go on p.decls, a block's on p.params.
func (p *Parser) initDeclarators(storage StorageClass, base *Type, fileScope bool) error {
	use := useKept
	if fileScope && storage != StorageTypedef {
		use = useFile
	}
	for first := true; ; first = false {
		declPos := p.at(p.cur())
		d, t, err := p.parseNamedDeclarator(base, use)
		if err != nil {
			return err
		}
		if d.name == "" {
			return p.errf("expected a declarator name")
		}
		isFunc := fileScope && d.isFunc
		def := isFunc && first && p.cur().Kind == TokLBrace
		switch {
		case storage == StorageTypedef && def:
			return p.errf("a function definition cannot be a typedef")
		case storage == StorageTypedef:
			named := &Type{Kind: TypeNamed, Name: d.name, Def: t}
			p.declareTypedef(d.name, named)
			if fileScope {
				p.decls = append(p.decls, &TypedefDecl{P: declPos, Name: d.name, Type: named})
			}
		case isFunc:
			fd := newNode(p, FuncDecl{
				P: declPos, Name: d.name, Result: t, Params: d.params,
				Variadic: d.variadic, Storage: storage, File: p.file,
			})
			p.decls = append(p.decls, fd)
			if def {
				return p.defineBody(fd)
			}
		default:
			vd := newNode(p, VarDecl{P: declPos, Name: d.name, Type: t, Storage: storage})
			if p.accept(TokAssign) {
				if vd.Init, err = p.parseInitializer(); err != nil {
					return err
				}
			}
			if fileScope {
				p.decls = append(p.decls, vd)
			} else {
				p.params = append(p.params, vd)
			}
		}
		if !p.accept(TokComma) {
			_, err = p.expect(TokSemi)
			return err
		}
	}
}

// parseInitializer parses an initializer: an assignment expression or
// a braced list of initializers.
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
