package cc

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
		if base = typeSpecifiers[string(key)]; base == nil {
			return 0, nil, p.errf("invalid type specifiers %q", string(key))
		}
		// An integer wider than char is a new Type per declaration: the
		// emitted form and the AST hash number types by pointer.
		if base.Kind == TypeInt && base.Size > 1 {
			cp := *base
			base = &cp
		}
	} else if base == nil {
		return 0, nil, p.errf("expected type specifier, found %s", p.cur())
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
