package cc

import "slices"

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

// typeKeywords orders the type keywords in typeSpecifiers' keys.
var typeKeywords = [...]TokKind{TokSigned, TokUnsigned, TokShort, TokLong, TokChar, TokInt, TokFloat, TokDouble, TokVoid}

// typeSpecifiers maps each multiset of type keywords that C11 6.7.2p2
// allows, its keywords in typeKeywords' order, to the type it names; any
// other multiset is an error. Long and long long are both 8 bytes
// (LP64), and long double is double. A struct, union or enum specifier
// or a typedef name stands alone.
var typeSpecifiers = map[string]*Type{
	"void": TypeVoidV,
	"char": TypeCharV, "signed char": TypeCharV, "unsigned char": TypeUCharV,
	"short": TypeShortV, "signed short": TypeShortV, "short int": TypeShortV, "signed short int": TypeShortV,
	"unsigned short": typeUShortV, "unsigned short int": typeUShortV,
	"int": TypeIntV, "signed": TypeIntV, "signed int": TypeIntV,
	"unsigned": TypeUIntV, "unsigned int": TypeUIntV,
	"long": TypeLongV, "signed long": TypeLongV, "long int": TypeLongV, "signed long int": TypeLongV,
	"long long": TypeLongV, "signed long long": TypeLongV, "long long int": TypeLongV, "signed long long int": TypeLongV,
	"unsigned long": TypeULongV, "unsigned long int": TypeULongV,
	"unsigned long long": TypeULongV, "unsigned long long int": TypeULongV,
	"float": TypeFloatV, "double": TypeDoubleV, "long double": TypeDoubleV,
}

var typeUShortV = &Type{Kind: TypeInt, Size: 2, Unsigned: true}

// parseDeclSpecifiers parses storage-class specifiers, type
// specifiers, and qualifiers, returning the storage class and the base
// type.
func (p *Parser) parseDeclSpecifiers() (StorageClass, *Type, error) {
	storage := StorageNone
	var (
		count               [TokVoid + 1]uint8 // each type keyword's occurrences
		keywords            bool
		isConst, isVolatile bool
		complexType         *Type
	)
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
		case TokVoid, TokChar, TokShort, TokInt, TokLong, TokFloat, TokDouble, TokSigned, TokUnsigned:
			if complexType != nil {
				return 0, nil, p.errf("unexpected %s in declaration specifiers", t.Kind)
			}
			count[t.Kind] = min(count[t.Kind]+1, 3)
			keywords = true
			p.next()
		case TokStruct, TokUnion, TokEnum:
			if keywords || complexType != nil {
				return 0, nil, p.errf("unexpected %s in declaration specifiers", t.Kind)
			}
			var err error
			if t.Kind == TokEnum {
				complexType, err = p.parseEnumSpecifier()
			} else {
				complexType, err = p.parseRecordSpecifier()
			}
			if err != nil {
				return 0, nil, err
			}
		case TokIdent:
			// A typedef name is a type specifier only if we have no
			// other type specifier yet.
			if !keywords && complexType == nil {
				if td, ok := p.lookupTypedef(t.Text); ok {
					complexType = td
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
	base := complexType
	if keywords {
		var buf [32]byte
		key := buf[:0]
		for _, k := range typeKeywords {
			for range count[k] {
				if len(key) > 0 {
					key = append(key, ' ')
				}
				key = append(key, tokNames[k]...)
			}
		}
		// Every declaration of one keyword set shares the table's Type:
		// nothing writes a specifier's type after the parse.
		if base = typeSpecifiers[string(key)]; base == nil {
			return 0, nil, p.errf("invalid type specifiers %q", string(key))
		}
	} else if base == nil {
		return 0, nil, p.errf("expected type specifier, found %s", p.cur())
	}
	if isConst || isVolatile {
		base = base.qualified(isConst, isVolatile)
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
			d, ft, err := p.parseNamedDeclarator(base, useKept)
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
	params   []*VarDecl
	variadic bool
}

// declUse says what becomes of a declarator's type. Only the outermost
// derivation's type can be left unmade: every type made is made alone
// (or shared, PointerTo), since a kept declaration may point at it
// after the pass (DESIGN §12.1).
type declUse uint8

const (
	// useKept: the type as declared.
	useKept declUse = iota
	// useParam: a parameter's; an outermost array decays to a pointer
	// and is never made.
	useParam
	// useFile: a file-scope declaration's. A function keeps only its
	// result type: its declarator gives that, and no function type is
	// made.
	useFile
)

// parseNamedDeclarator parses a (possibly abstract) declarator and
// returns it with the type it gives base, or, for a function declarator
// with useFile, the function's result type.
func (p *Parser) parseNamedDeclarator(base *Type, use declUse) (declarator, *Type, error) {
	start := len(p.derivs)
	d, err := p.parseDeclaratorRec()
	// The derivations were pushed in source order, so the one nearest
	// the base type is last and the outermost is at start.
	t := base
	for i := len(p.derivs) - 1; err == nil && i >= start; i-- {
		dv := p.derivs[i]
		outer := i == start
		switch {
		case outer && use == useFile && d.isFunc:
			// t is the result type.
		case dv.kind == TypePointer || dv.kind == TypeArray && outer && use == useParam:
			t = PointerTo(t)
		case dv.kind == TypeArray:
			t = &Type{Kind: TypeArray, Elem: t, ArrayLen: dv.n}
		default:
			ft := &Type{Kind: TypeFunc, Ret: t, Variadic: dv.variadic}
			if len(dv.params) > 0 {
				ft.Params = make([]*Type, len(dv.params))
				for i, pd := range dv.params {
					ft.Params[i] = pd.Type
				}
			}
			t = ft
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
	// declarator's outermost derivation is the pointer).
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
		// The inner declarator's derivations are the outermost: (*f)(int)
		// declares a pointer, (*f(void))(int) a function returning one.
		d = inner
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
			params, variadic, err := p.parseParamList()
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
			p.derivs = append(p.derivs, derivation{kind: TypeFunc, params: params, variadic: variadic})
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
func (p *Parser) parseParamList() ([]*VarDecl, bool, error) {
	start := len(p.params)
	defer func() { clear(p.params[start:]); p.params = p.params[:start] }()
	variadic := false
	if p.cur().Kind == TokRParen {
		return nil, false, nil
	}
	// "(void)" means no parameters.
	if p.cur().Kind == TokVoid && p.la(1).Kind == TokRParen {
		p.next()
		return nil, false, nil
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
			return nil, false, err
		}
		d, t, err := p.parseNamedDeclarator(base, useParam)
		if err != nil {
			return nil, false, err
		}
		// Array parameters decay to pointers: a typedef's too.
		if t.Underlying().Kind == TypeArray {
			t = PointerTo(t.Underlying().Elem)
		}
		p.params = append(p.params, newNode(p, VarDecl{P: declPos, Name: d.name, Type: t}))
		if !p.accept(TokComma) {
			break
		}
	}
	return popList(p, &p.params, start), variadic, nil
}

// parseTypeName parses a type-name (as in casts and sizeof).
func (p *Parser) parseTypeName() (*Type, error) {
	_, base, err := p.parseDeclSpecifiers()
	if err != nil {
		return nil, err
	}
	d, t, err := p.parseNamedDeclarator(base, useKept)
	if err != nil {
		return nil, err
	}
	if d.name != "" {
		return nil, p.errf("unexpected identifier %q in type name", d.name)
	}
	return t, nil
}

// ---------------------------------------------------------------------------
// Function bodies: pass 1's skim
// ---------------------------------------------------------------------------

// BodySkim is what pass 1 records of a function body it does not parse
// (SkimFile): the body's token span, the names of the functions it
// calls directly, and the file-scope scope horizon at the definition.
// ParseBody parses the span later, seeing exactly the typedef, tag and
// enum names that were visible at the definition; Hasher.Func hashes
// its tokens with their positions.
type BodySkim struct {
	// Lo and Hi index the body's "{" and its matching "}" in the file's
	// token stream.
	Lo, Hi int32
	// Callees names each function a call in the body's reachable code
	// calls directly — a call point of its CFG — once, in source order.
	// It is empty for a body pass 1 parsed in place (FuncDecl.Body set),
	// whose CFG says the same.
	Callees []string
	// horizon counts the file-scope scope entries visible at the
	// definition.
	horizon int32
	src     *Parser // the file's parser: its tokens and file-scope names
}

// SkimFile lexes and parses a translation unit's declarations, and
// skims each function body into a BodySkim. A body the skim's grammar
// does not cover — a local typedef, tag definition or array length
// sizeof, a cast or sizeof of more than a plain type name, a duplicate
// label, anything malformed — is parsed in place instead, so Callees is
// exact: where the parser accepts a body, the skim's names equal the
// direct calls of the CFG built from it (TestSkimMatchesParse). An
// error is the first in source order among the declarations and the
// bodies before it. The declarations, and a body parsed in place, are
// carved from a.
func SkimFile(a *Arena, file, src string) (*File, error) { return skimFile(a, file, src, true) }

// skimFile parses a translation unit, skimming each body into its span
// and, with callees, into its callees too. The declarations, and a body
// it parses in place, are carved from a.
func skimFile(a *Arena, file, src string, callees bool) (*File, error) {
	toks, err := LexAll(file, src)
	if err != nil {
		return nil, err
	}
	p := NewParser(file, toks)
	p.callees = callees
	p.useArena(a)
	f, err := p.parseTranslationUnit()
	// The bodies before an error are parsed: one of theirs may come
	// first. The stack they are on goes back to the arena.
	var parsed []Decl
	if err != nil {
		parsed = slices.Clone(p.decls)
	}
	p.releaseArena() // the parser outlives the call in each skim
	if err != nil {
		for _, d := range parsed {
			if fd, ok := d.(*FuncDecl); ok {
				if berr := ParseBody(fd, a); berr != nil {
					return nil, berr
				}
			}
		}
		return nil, err
	}
	return f, nil
}

// ParseBody parses the body pass 1 skimmed into fd.Body, carving its
// nodes from a; a declaration with no skimmed body is left as it is.
// The bodies of one file share its parser, so ParseBody must not run
// concurrently with another call for the same file. Each skimmed body
// is parsed once, through whichever copy of its declaration, and the
// last lets the file's tokens and scope stack go. The span of a body
// pass 1 parsed in place then reads nothing: Hasher.Func hashes a file
// before any of its skimmed bodies is parsed (mc.NewUnitTree).
func ParseBody(fd *FuncDecl, a *Arena) error {
	s := &fd.Skim
	p := s.src
	if p == nil || fd.Body != nil {
		return nil
	}
	p.pos, p.horizon, p.fileEnd = int(s.Lo), s.horizon, int32(len(p.names))
	p.useArena(a)
	body, err := p.parseBody()
	p.releaseArena() // with whatever a failed parse left on the stacks
	p.horizon, p.fileEnd = 0, 0
	if err != nil {
		return err
	}
	fd.Body = body
	if p.unparsed--; p.unparsed == 0 {
		p.toks, p.names, p.marks, p.latest = nil, nil, nil, [numNamespaces]map[string]int32{}
	}
	return nil
}

// parseBody parses a function body in a scope of its own, carving its
// nodes from the pass's arena.
func (p *Parser) parseBody() (*CompoundStmt, error) {
	p.labels = p.labels[:0]
	p.pushScope()
	defer p.popScope()
	return p.parseCompoundStmt()
}

// defineBody skims the body of definition fd, or parses it in place
// when the skim leaves it to the parser.
func (p *Parser) defineBody(fd *FuncDecl) error {
	if p.skimBody(fd) {
		return nil
	}
	var err error
	if fd.Body, err = p.parseBody(); err != nil {
		fd.Skim = BodySkim{} // not one ParseBody parses: the file fails here
	}
	return err
}

// skimBody skims the body starting at the current token into fd.Skim
// and steps over it. It reports false, with the position unchanged,
// for a body it leaves to the parser: one whose braces do not balance,
// one that the scope would see declared after it as well as before (a
// tag definition or an array length sizeof), and, when it names
// callees, one outside the skim's grammar.
func (p *Parser) skimBody(fd *FuncDecl) bool {
	lo := p.pos
	hi, ok := p.matchBrace(lo)
	if hi < 0 {
		return false
	}
	s := &fd.Skim
	s.Lo, s.Hi, s.horizon, s.src = int32(lo), int32(hi), int32(len(p.names)), p
	if ok && p.callees {
		s.Callees, ok = p.skimCallees(lo, hi)
	}
	if !ok {
		s.Callees = nil // the span stays: Hasher.Func reads it
		p.pos = lo
		return false
	}
	p.pos = hi + 1
	p.unparsed++
	return true
}

// matchBrace returns the index of the "}" matching the "{" at lo, or -1
// at EOF. It reports false when the span declares a struct, union or
// enum tag, or, unless the skim reads sizeof operands itself (callees),
// takes a sizeof: a tag a later file-scope declaration can complete in
// place, or a sizeof of a type completed after the body, would read
// differently later than in place.
func (p *Parser) matchBrace(lo int) (int, bool) {
	depth, ok := 0, true
	for i := lo; i < len(p.toks); i++ {
		switch p.toks[i].Kind {
		case TokLBrace:
			if k := p.toks[i-1].Kind; k == TokStruct || k == TokUnion || k == TokEnum ||
				k == TokIdent && i >= 2 && isTagKeyword(p.toks[i-2].Kind) {
				ok = false
			}
			depth++
		case TokRBrace:
			if depth--; depth == 0 {
				return i, ok
			}
		case TokSizeof:
			if !p.callees {
				ok = false // skimCallees reads a sizeof's operand itself
			}
		case TokEOF:
			return -1, false
		}
	}
	return -1, false
}

func isTagKeyword(k TokKind) bool { return k == TokStruct || k == TokUnion || k == TokEnum }

// skimmer is the scratch for skimming one body at a time, which the
// pass's arena lends the parser (useArena): the body's reachability graph, mirroring cfg.Builder block for block as
// far as reachability goes (a node per block, cur -1 where cfg.Builder's
// current block is nil), and the calls found in each node.
type skimmer struct {
	nodes    int32
	cur      int32
	edges    [][2]int32
	calls    []skimCall
	labels   []skimLabel
	gotos    []skimLabel
	breaks   []int32
	conts    []int32
	switches []skimSwitch
	reach    []bool
	start    []int32
	adj      []int32
	stack    []int32
	callees  []string // the body's callee names, until they are carved
}

type skimCall struct {
	node int32
	name string
}

type skimLabel struct {
	name string
	node int32
}

type skimSwitch struct {
	head       int32
	sawDefault bool
}

func (sk *skimmer) node() int32 {
	sk.nodes++
	return sk.nodes - 1
}

func (sk *skimmer) edge(from, to int32) { sk.edges = append(sk.edges, [2]int32{from, to}) }

// ensureFresh and startBlock are cfg.Builder's: the current node, or a
// fresh one when there is none; a fresh node entered from the current.
func (sk *skimmer) ensureFresh() int32 {
	if sk.cur < 0 {
		sk.cur = sk.node()
	}
	return sk.cur
}

func (sk *skimmer) startBlock() int32 {
	n := sk.node()
	if sk.cur >= 0 {
		sk.edge(sk.cur, n)
	}
	sk.cur = n
	return n
}

// flow links the current node, if any, to n.
func (sk *skimmer) flow(n int32) {
	if sk.cur >= 0 {
		sk.edge(sk.cur, n)
	}
}

// skimCallees skims the body spanning toks[lo..hi] and returns its
// callees, carved from the pass's arena at their count; false leaves it
// to the parser.
func (p *Parser) skimCallees(lo, hi int) ([]string, bool) {
	sk := &p.sk
	sk.nodes, sk.edges, sk.calls, sk.labels, sk.gotos = 0, sk.edges[:0], sk.calls[:0], sk.labels[:0], sk.gotos[:0]
	sk.breaks, sk.conts, sk.switches = sk.breaks[:0], sk.conts[:0], sk.switches[:0]
	sk.cur = sk.node()
	p.pos = lo
	if !p.skimCompound() || p.pos != hi+1 {
		return nil, false
	}
	for _, g := range sk.gotos {
		for i := len(sk.labels) - 1; i >= 0; i-- {
			if sk.labels[i].name == g.name {
				sk.edge(g.node, sk.labels[i].node)
				break
			}
		}
	}
	sk.reachFrom(0)
	for _, c := range sk.calls {
		if sk.reach[c.node] && !slices.Contains(sk.callees, c.name) {
			sk.callees = append(sk.callees, c.name)
		}
	}
	clear(sk.calls)
	return popList(p, &sk.callees, 0), true
}

// reachFrom marks the nodes reachable from n over the edges.
func (sk *skimmer) reachFrom(n int32) {
	sk.reach = resizeZero(sk.reach, int(sk.nodes))
	sk.start = resizeZero(sk.start, int(sk.nodes)+1)
	for _, e := range sk.edges {
		sk.start[e[0]+1]++
	}
	for i := 1; i < len(sk.start); i++ {
		sk.start[i] += sk.start[i-1]
	}
	sk.adj = resizeZero(sk.adj, len(sk.edges))
	fill := sk.stack[:0] // each node's next free slot, then the walk's stack
	fill = append(fill, sk.start[:len(sk.start)-1]...)
	for _, e := range sk.edges {
		sk.adj[fill[e[0]]] = e[1]
		fill[e[0]]++
	}
	stack := append(fill[:0], n)
	sk.reach[n] = true
	for len(stack) > 0 {
		m := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, to := range sk.adj[sk.start[m]:sk.start[m+1]] {
			if !sk.reach[to] {
				sk.reach[to] = true
				stack = append(stack, to)
			}
		}
	}
	sk.stack = stack
}

// resizeZero returns s with length n, all zero, reusing its array.
func resizeZero[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// skimCompound skims a block; the current token is its "{".
func (p *Parser) skimCompound() bool {
	p.next()
	for p.cur().Kind != TokRBrace {
		if p.cur().Kind == TokEOF || !p.skimStmt() {
			return false
		}
	}
	p.next()
	return true
}

// skimStmt skims one statement, as parseStmt parses it and cfg.Builder
// links its blocks.
func (p *Parser) skimStmt() bool {
	sk := &p.sk
	switch t := p.cur(); t.Kind {
	case TokLBrace:
		return p.skimCompound()
	case TokSemi:
		p.next()
		return true
	case TokIf:
		p.next()
		cond := sk.ensureFresh()
		if !p.skimParenExpr(cond) {
			return false
		}
		join, then := sk.node(), sk.node()
		sk.edge(cond, then)
		sk.cur = then
		if !p.skimStmt() {
			return false
		}
		sk.flow(join)
		if p.accept(TokElse) {
			els := sk.node()
			sk.edge(cond, els)
			sk.cur = els
			if !p.skimStmt() {
				return false
			}
			sk.flow(join)
		} else {
			sk.edge(cond, join)
		}
		sk.cur = join
		return true
	case TokWhile:
		p.next()
		head := sk.startBlock()
		if !p.skimParenExpr(head) {
			return false
		}
		after, body := sk.node(), sk.node()
		sk.edge(head, body)
		sk.edge(head, after)
		return p.skimLoopBody(body, after, head)
	case TokDo:
		p.next()
		body := sk.startBlock()
		after, cond := sk.node(), sk.node()
		if !p.skimLoopBody(body, after, cond) {
			return false
		}
		sk.edge(cond, body)
		sk.edge(cond, after)
		sk.cur = after
		return p.accept(TokWhile) && p.skimParenExpr(cond) && p.accept(TokSemi)
	case TokFor:
		p.next()
		if !p.accept(TokLParen) {
			return false
		}
		if !p.accept(TokSemi) {
			if p.startsDeclSpecifiers() {
				if !p.skimDecl() {
					return false
				}
			} else if !p.skimExpr(sk.ensureFresh(), TokSemi, false) || !p.accept(TokSemi) {
				return false
			}
		}
		head := sk.startBlock()
		after := sk.node()
		hasCond := p.cur().Kind != TokSemi
		if hasCond && !p.skimExpr(head, TokSemi, false) || !p.accept(TokSemi) {
			return false
		}
		post := sk.node()
		if p.cur().Kind != TokRParen && !p.skimExpr(post, TokRParen, false) || !p.accept(TokRParen) {
			return false
		}
		sk.edge(post, head)
		body := sk.node()
		sk.edge(head, body)
		if hasCond {
			sk.edge(head, after)
		}
		return p.skimLoopBody(body, after, post)
	case TokSwitch:
		p.next()
		head := sk.ensureFresh()
		if !p.skimParenExpr(head) {
			return false
		}
		after := sk.node()
		sk.switches = append(sk.switches, skimSwitch{head: head})
		sk.breaks = append(sk.breaks, after)
		sk.cur = -1
		if !p.skimStmt() {
			return false
		}
		sk.flow(after)
		sk.breaks = sk.breaks[:len(sk.breaks)-1]
		sw := sk.switches[len(sk.switches)-1]
		sk.switches = sk.switches[:len(sk.switches)-1]
		if !sw.sawDefault {
			sk.edge(head, after)
		}
		sk.cur = after
		return true
	case TokCase, TokDefault:
		p.next()
		// A case value is no program point: step over it.
		if t.Kind == TokCase && !p.skimExpr(-1, TokColon, false) || !p.accept(TokColon) {
			return false
		}
		if n := len(sk.switches); n > 0 {
			blk := sk.node()
			sk.flow(blk)
			sk.edge(sk.switches[n-1].head, blk)
			if t.Kind == TokDefault {
				sk.switches[n-1].sawDefault = true
			}
			sk.cur = blk
		}
		return p.skimStmt()
	case TokBreak, TokContinue:
		p.next()
		targets := sk.breaks
		if t.Kind == TokContinue {
			targets = sk.conts
		}
		if sk.cur >= 0 && len(targets) > 0 {
			sk.edge(sk.cur, targets[len(targets)-1])
		}
		sk.cur = -1
		return p.accept(TokSemi)
	case TokReturn:
		p.next()
		blk := sk.ensureFresh()
		if p.cur().Kind != TokSemi && !p.skimExpr(blk, TokSemi, false) {
			return false
		}
		sk.cur = -1
		return p.accept(TokSemi)
	case TokGoto:
		p.next()
		lbl := p.cur()
		if !p.accept(TokIdent) || !p.accept(TokSemi) {
			return false
		}
		if sk.cur >= 0 {
			sk.gotos = append(sk.gotos, skimLabel{lbl.Text, sk.cur})
		}
		sk.cur = -1
		return true
	case TokIdent:
		if p.la(1).Kind == TokColon {
			for _, l := range sk.labels {
				if l.name == t.Text {
					return false // the parser reports the duplicate
				}
			}
			p.next()
			p.next()
			target := sk.node()
			sk.labels = append(sk.labels, skimLabel{t.Text, target})
			sk.flow(target)
			sk.cur = target
			return p.skimStmt()
		}
	}
	if p.startsDeclSpecifiers() {
		return p.skimDecl()
	}
	return p.skimExpr(sk.ensureFresh(), TokSemi, false) && p.accept(TokSemi)
}

// skimLoopBody skims a loop's body entered at node body, with break
// going to after, and continue and the body's end to cont. It leaves
// the current node at after.
func (p *Parser) skimLoopBody(body, after, cont int32) bool {
	sk := &p.sk
	sk.breaks = append(sk.breaks, after)
	sk.conts = append(sk.conts, cont)
	sk.cur = body
	if !p.skimStmt() {
		return false
	}
	sk.flow(cont)
	sk.breaks = sk.breaks[:len(sk.breaks)-1]
	sk.conts = sk.conts[:len(sk.conts)-1]
	sk.cur = after
	return true
}

// skimParenExpr skims "( expr )" into node n.
func (p *Parser) skimParenExpr(n int32) bool {
	return p.accept(TokLParen) && p.skimExpr(n, TokRParen, false) && p.accept(TokRParen)
}

// skimDecl skims a block-scope declaration through its semicolon, as
// parseBlockDecl parses it: its initializers' calls are points of the
// block cfg.Builder puts the first initializer in; its declarators
// (local prototypes among them) call nothing.
func (p *Parser) skimDecl() bool {
	if !p.skimSpecifiers(false) {
		return false
	}
	if p.accept(TokSemi) {
		return true
	}
	blk := int32(-1)
	for {
		if !p.skimDeclarator() {
			return false
		}
		if p.accept(TokAssign) {
			if blk < 0 {
				blk = p.sk.ensureFresh()
			}
			if !p.skimExpr(blk, TokComma, true) {
				return false
			}
		}
		if p.accept(TokSemi) {
			return true
		}
		if !p.accept(TokComma) {
			return false
		}
	}
}

// skimSpecifiers steps over declaration specifiers as
// parseDeclSpecifiers reads them. A typedef, or a tag with a body,
// would declare a name the skim does not track: it reports false.
// typeName limits them to a type name's: no storage class.
func (p *Parser) skimSpecifiers(typeName bool) bool {
	keywords, named := false, false
	for {
		switch t := p.cur(); t.Kind {
		case TokAuto, TokRegister, TokStatic, TokExtern, TokInline:
			if typeName {
				return false
			}
		case TokConst, TokVolatile:
		case TokVoid, TokChar, TokShort, TokInt, TokLong, TokFloat, TokDouble, TokSigned, TokUnsigned:
			if named {
				return false
			}
			keywords = true
		case TokStruct, TokUnion, TokEnum:
			if keywords || named || p.la(1).Kind != TokIdent || p.la(2).Kind == TokLBrace {
				return false
			}
			p.next()
			named = true
		case TokIdent:
			if keywords || named {
				return true
			}
			if _, ok := p.lookupTypedef(t.Text); !ok {
				return false
			}
			named = true
		default:
			return keywords || named
		}
		p.next()
	}
}

// skimDeclarator steps over one declarator, through to the "=", ","
// or ";" after it. Nothing in a declarator is a program point: an
// array length is folded, a parameter list declares.
func (p *Parser) skimDeclarator() bool {
	depth := 0
	for {
		switch p.cur().Kind {
		case TokLParen, TokLBracket:
			depth++
		case TokRParen, TokRBracket:
			if depth == 0 {
				return false
			}
			depth--
		case TokAssign, TokComma, TokSemi:
			if depth == 0 {
				return true
			}
		case TokLBrace, TokEOF, TokSizeof, TokTypedef:
			return false
		case TokStruct, TokUnion, TokEnum:
			if p.la(1).Kind == TokLBrace || p.la(2).Kind == TokLBrace {
				return false
			}
		}
		p.next()
	}
}

// skimExpr steps over an expression up to a stop token at nesting depth
// 0 (or a "," with braces, an initializer's end), recording in node n
// (none when n is -1) every direct call: an identifier, or a
// parenthesized one, that a "(" follows, outside member names, sizeof
// operands and cast types. braces admits an initializer list.
func (p *Parser) skimExpr(n int32, stop TokKind, braces bool) bool {
	depth := 0
	operand := false // the last token ends an operand: a "(" calls it
	for {
		t := p.cur()
		if depth == 0 && (t.Kind == stop || braces && t.Kind == TokSemi) {
			return true
		}
		switch t.Kind {
		case TokLParen:
			if !operand {
				if p.startsTypeNameAt(p.pos + 1) {
					// A cast: "(" type name ")".
					p.next()
					if !p.skimTypeName() {
						return false
					}
					continue
				}
				if name := p.parenCallee(); name != "" {
					p.record(n, name)
				}
			}
			depth++
			operand = false
		case TokLBracket:
			depth++
			operand = false
		case TokLBrace:
			if !braces {
				return false
			}
			depth++
			operand = false
		case TokRParen, TokRBracket, TokRBrace:
			if depth == 0 || t.Kind == TokRBrace && !braces {
				return false
			}
			depth--
			operand = true
		case TokIdent:
			if p.la(1).Kind == TokLParen && !p.afterMember() {
				p.record(n, t.Text)
			}
			operand = true
		case TokIntLit, TokFloatLit, TokCharLit, TokStringLit:
			operand = true
		case TokSizeof:
			p.next()
			if !p.skimSizeofOperand() {
				return false
			}
			operand = true
			continue
		case TokInc, TokDec:
		case TokQuestion:
			if stop == TokColon && depth == 0 {
				return false // a case value's ":" would be ambiguous
			}
			operand = false
		case TokEOF, TokSemi:
			return false
		default:
			if t.Kind < TokLParen {
				return false // a keyword
			}
			operand = false
		}
		p.next()
	}
}

func (p *Parser) record(n int32, name string) {
	if n >= 0 {
		p.sk.calls = append(p.sk.calls, skimCall{n, name})
	}
}

// afterMember reports whether the current identifier names a member.
func (p *Parser) afterMember() bool {
	k := p.toks[p.pos-1].Kind
	return k == TokDot || k == TokArrow
}

// parenCallee returns f when the current "(" opens "(f)", "((f))"...
// and a call follows: parsePrimaryExpr folds the parentheses, so the
// call is direct.
func (p *Parser) parenCallee() string {
	k := 0
	for p.la(k).Kind == TokLParen {
		k++
	}
	id := p.la(k)
	if id.Kind != TokIdent {
		return ""
	}
	for i := 1; i <= k; i++ {
		if p.la(k+i).Kind != TokRParen {
			return ""
		}
	}
	if p.la(2*k+1).Kind != TokLParen {
		return ""
	}
	if _, ok := p.lookupTypedef(id.Text); ok {
		return ""
	}
	return id.Text
}

// startsTypeNameAt is startsTypeName at token i.
func (p *Parser) startsTypeNameAt(i int) bool {
	save := p.pos
	p.pos = i
	ok := p.startsTypeName()
	p.pos = save
	return ok
}

// skimTypeName steps over a plain type name and its ")": specifiers,
// then pointer stars. Anything more is left to the parser.
func (p *Parser) skimTypeName() bool {
	if !p.skimSpecifiers(true) {
		return false
	}
	for p.accept(TokStar) {
		for p.cur().Kind == TokConst || p.cur().Kind == TokVolatile {
			p.next()
		}
	}
	return p.accept(TokRParen)
}

// skimSizeofOperand steps over what parseUnaryExpr reads after sizeof:
// "(" type name ")", or a unary expression. Nothing in it runs.
func (p *Parser) skimSizeofOperand() bool {
	sizeof := true // "(" type name ")" here is all of the operand
prefix:
	for {
		switch p.cur().Kind {
		case TokSizeof:
			sizeof = true
		case TokAmp, TokStar, TokPlus, TokMinus, TokTilde, TokNot:
			sizeof = false // a cast may follow
		case TokInc, TokDec:
			return false
		case TokLParen:
			if !p.startsTypeNameAt(p.pos + 1) {
				break prefix
			}
			p.next()
			if !p.skimTypeName() {
				return false
			}
			if sizeof {
				return true
			}
			continue // a cast: its operand follows
		default:
			break prefix
		}
		p.next()
	}
	switch p.cur().Kind {
	case TokLParen:
		if !p.skipGroup() {
			return false
		}
	case TokIdent, TokIntLit, TokFloatLit, TokCharLit:
		p.next()
	case TokStringLit:
		for p.cur().Kind == TokStringLit {
			p.next()
		}
	default:
		return false
	}
	for {
		switch p.cur().Kind {
		case TokLParen, TokLBracket:
			if !p.skipGroup() {
				return false
			}
		case TokDot, TokArrow:
			p.next()
			if !p.accept(TokIdent) {
				return false
			}
		case TokInc, TokDec:
			p.next()
		default:
			return true
		}
	}
}

// skipGroup steps over a parenthesized or bracketed group.
func (p *Parser) skipGroup() bool {
	depth := 0
	for {
		switch p.cur().Kind {
		case TokLParen, TokLBracket:
			depth++
		case TokRParen, TokRBracket:
			if depth--; depth == 0 {
				p.next()
				return true
			}
		case TokLBrace, TokRBrace, TokSemi, TokEOF:
			return false
		}
		p.next()
	}
}
