package metal

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/cc"
	"repro/internal/pattern"
)

// Parse compiles metal checker source text.
func Parse(src string) (*Checker, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks, src: src}
	return p.parseChecker()
}

// ---------------------------------------------------------------------------
// Lexer
// ---------------------------------------------------------------------------

type tkind int

const (
	tEOF tkind = iota
	tIdent
	tBrace     // { ... } raw pattern or action text
	tCallout   // ${ ... } raw callout text
	tEndOfPath // $end_of_path$
	tColon
	tSemi
	tPipe
	tComma
	tDot
	tArrow  // ==>
	tAssign // =
	tAndAnd
	tOrOr
	tLParen
	tRParen
)

type mtok struct {
	kind tkind
	text string
	line int
}

func (t mtok) String() string {
	switch t.kind {
	case tIdent:
		return fmt.Sprintf("%q", t.text)
	case tBrace:
		return "{...}"
	case tCallout:
		return "${...}"
	case tEndOfPath:
		return "$end_of_path$"
	case tEOF:
		return "end of file"
	}
	return map[tkind]string{
		tColon: ":", tSemi: ";", tPipe: "|", tComma: ",", tDot: ".",
		tArrow: "==>", tAssign: "=", tAndAnd: "&&", tOrOr: "||",
		tLParen: "(", tRParen: ")",
	}[t.kind]
}

type mlexer struct {
	src  string
	off  int
	line int
}

func lex(src string) ([]mtok, error) {
	l := &mlexer{src: src, line: 1}
	var out []mtok
	for {
		t, err := l.next()
		if err != nil {
			return nil, err
		}
		out = append(out, t)
		if t.kind == tEOF {
			return out, nil
		}
	}
}

func (l *mlexer) errf(format string, args ...interface{}) error {
	return fmt.Errorf("metal:%d: %s", l.line, fmt.Sprintf(format, args...))
}

func (l *mlexer) peek() byte {
	if l.off >= len(l.src) {
		return 0
	}
	return l.src[l.off]
}

func (l *mlexer) peekAt(n int) byte {
	if l.off+n >= len(l.src) {
		return 0
	}
	return l.src[l.off+n]
}

func (l *mlexer) adv() byte {
	c := l.src[l.off]
	l.off++
	if c == '\n' {
		l.line++
	}
	return c
}

func (l *mlexer) skip() error {
	for l.off < len(l.src) {
		c := l.peek()
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			l.adv()
		case c == '/' && l.peekAt(1) == '/':
			for l.off < len(l.src) && l.peek() != '\n' {
				l.adv()
			}
		case c == '/' && l.peekAt(1) == '*':
			start := l.line
			l.adv()
			l.adv()
			closed := false
			for l.off < len(l.src) {
				if l.peek() == '*' && l.peekAt(1) == '/' {
					l.adv()
					l.adv()
					closed = true
					break
				}
				l.adv()
			}
			if !closed {
				return fmt.Errorf("metal:%d: unterminated comment", start)
			}
		default:
			return nil
		}
	}
	return nil
}

// braceBlock consumes a balanced {...} block (the opening brace has
// already been consumed) and returns the inner text. Strings and char
// literals inside are respected.
func (l *mlexer) braceBlock() (string, error) {
	start, depth := l.off, 1
	for i := start; i < len(l.src); i++ {
		switch l.src[i] {
		case '{':
			depth++
		case '}':
			if depth--; depth == 0 {
				l.line += strings.Count(l.src[start:i], "\n")
				l.off = i + 1
				return l.src[start:i], nil
			}
		case '"', '\'':
			i = skipQuoted(l.src, i)
		}
	}
	return "", fmt.Errorf("metal:%d: unterminated brace block", l.line)
}

// skipQuoted returns the index of the quote that closes the string or
// character literal opening at s[i], or len(s) when none does. A
// backslash escapes the byte after it.
func skipQuoted(s string, i int) int {
	q := s[i]
	for i++; i < len(s); i++ {
		switch s[i] {
		case '\\':
			i++
		case q:
			return i
		}
	}
	return len(s)
}

func isIdentByte(c byte, first bool) bool {
	if c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') {
		return true
	}
	return !first && c >= '0' && c <= '9'
}

func (l *mlexer) next() (mtok, error) {
	if err := l.skip(); err != nil {
		return mtok{}, err
	}
	line := l.line
	if l.off >= len(l.src) {
		return mtok{kind: tEOF, line: line}, nil
	}
	c := l.peek()
	switch {
	case isIdentByte(c, true):
		start := l.off
		for l.off < len(l.src) && isIdentByte(l.peek(), false) {
			l.adv()
		}
		return mtok{kind: tIdent, text: l.src[start:l.off], line: line}, nil
	case c == '{':
		l.adv()
		text, err := l.braceBlock()
		if err != nil {
			return mtok{}, err
		}
		return mtok{kind: tBrace, text: text, line: line}, nil
	case c == '$':
		l.adv()
		if l.peek() == '{' {
			l.adv()
			text, err := l.braceBlock()
			if err != nil {
				return mtok{}, err
			}
			return mtok{kind: tCallout, text: text, line: line}, nil
		}
		// $end_of_path$
		start := l.off
		for l.off < len(l.src) && isIdentByte(l.peek(), false) {
			l.adv()
		}
		word := l.src[start:l.off]
		if word == "end_of_path" && l.peek() == '$' {
			l.adv()
			return mtok{kind: tEndOfPath, line: line}, nil
		}
		return mtok{}, l.errf("unexpected $%s", word)
	}
	l.adv()
	switch c {
	case ':':
		return mtok{kind: tColon, line: line}, nil
	case ';':
		return mtok{kind: tSemi, line: line}, nil
	case '|':
		if l.peek() == '|' {
			l.adv()
			return mtok{kind: tOrOr, line: line}, nil
		}
		return mtok{kind: tPipe, line: line}, nil
	case ',':
		return mtok{kind: tComma, line: line}, nil
	case '.':
		return mtok{kind: tDot, line: line}, nil
	case '=':
		if l.peek() == '=' && l.peekAt(1) == '>' {
			l.adv()
			l.adv()
			return mtok{kind: tArrow, line: line}, nil
		}
		return mtok{kind: tAssign, line: line}, nil
	case '&':
		if l.peek() == '&' {
			l.adv()
			return mtok{kind: tAndAnd, line: line}, nil
		}
	case '*':
		// A lone '*' can begin a C type in a hole decl; treat as part
		// of an identifier-ish token for the type collector.
		return mtok{kind: tIdent, text: "*", line: line}, nil
	case '(':
		return mtok{kind: tLParen, line: line}, nil
	case ')':
		return mtok{kind: tRParen, line: line}, nil
	}
	return mtok{}, l.errf("unexpected character %q", string(c))
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

type parser struct {
	toks []mtok
	pos  int
	src  string
	c    *Checker
	// seenGlobal tracks declaration order of global states.
	seenGlobal map[string]bool
	// seenVarState tracks declared variable states.
	nextID int
}

func (p *parser) cur() mtok { return p.toks[p.pos] }

func (p *parser) la(n int) mtok {
	if p.pos+n >= len(p.toks) {
		return p.toks[len(p.toks)-1]
	}
	return p.toks[p.pos+n]
}

func (p *parser) next() mtok {
	t := p.toks[p.pos]
	if t.kind != tEOF {
		p.pos++
	}
	return t
}

func (p *parser) accept(k tkind) bool {
	if p.cur().kind == k {
		p.next()
		return true
	}
	return false
}

func (p *parser) expect(k tkind) (mtok, error) {
	if p.cur().kind == k {
		return p.next(), nil
	}
	return mtok{}, p.errf("expected %v, found %v", mtok{kind: k}, p.cur())
}

func (p *parser) errf(format string, args ...interface{}) error {
	return fmt.Errorf("metal:%d: %s", p.cur().line, fmt.Sprintf(format, args...))
}

func (p *parser) parseChecker() (*Checker, error) {
	p.c = &Checker{
		Source:    p.src,
		ID:        cc.HashBytes([]byte(p.src)),
		Vars:      map[string]*pattern.Hole{},
		VarStates: map[string][]string{},
		Callouts:  pattern.Registry{},
	}
	p.seenGlobal = map[string]bool{}
	p.c.SourceLines = strings.Count(p.src, "\n") + 1

	// Header: sm <name> ;
	kw, err := p.expect(tIdent)
	if err != nil || kw.text != "sm" {
		return nil, p.errf("checker must begin with 'sm <name>;'")
	}
	name, err := p.expect(tIdent)
	if err != nil {
		return nil, err
	}
	p.c.Name = name.text
	if _, err := p.expect(tSemi); err != nil {
		return nil, err
	}

	for p.cur().kind != tEOF {
		t := p.cur()
		if t.kind == tIdent && (t.text == "decl" || (t.text == "state" && p.la(1).kind == tIdent && p.la(1).text == "decl")) {
			if err := p.parseHoleDecl(); err != nil {
				return nil, err
			}
			continue
		}
		if err := p.parseStateDef(); err != nil {
			return nil, err
		}
	}
	if len(p.c.GlobalStates) == 0 {
		// A checker with only variable states still has the implicit
		// global "start".
		p.c.GlobalStates = []string{"start"}
	}
	return p.c, nil
}

// parseHoleDecl parses "[state] decl <type> <name> [, <name>]* ;".
func (p *parser) parseHoleDecl() error {
	if p.cur().text == "state" {
		p.next()
	}
	p.next() // decl
	// Collect type tokens up to the last identifier before ; or ,
	// (that identifier is the variable name).
	var typeToks []string
	for {
		t := p.cur()
		if t.kind != tIdent {
			return p.errf("expected type or name in decl, found %v", t)
		}
		// The variable name is the ident immediately followed by ; or ,.
		if p.la(1).kind == tSemi || p.la(1).kind == tComma {
			break
		}
		typeToks = append(typeToks, t.text)
		p.next()
	}
	if len(typeToks) == 0 {
		return p.errf("decl needs a type before the variable name")
	}
	hole, err := holeFor(typeToks)
	if err != nil {
		return p.errf("%v", err)
	}
	for {
		nameTok, err := p.expect(tIdent)
		if err != nil {
			return err
		}
		h := *hole
		h.Name = nameTok.text
		p.c.Vars[nameTok.text] = &h
		if p.accept(tComma) {
			continue
		}
		_, err = p.expect(tSemi)
		return err
	}
}

func holeFor(typeToks []string) (*pattern.Hole, error) {
	if len(typeToks) == 1 && pattern.KnownMeta(typeToks[0]) {
		return &pattern.Hole{Meta: pattern.MetaKind(typeToks[0])}, nil
	}
	typeStr := strings.Join(typeToks, " ")
	t, err := cc.ParseTypeString(typeStr)
	if err != nil {
		return nil, fmt.Errorf("bad hole type %q: %v", typeStr, err)
	}
	return &pattern.Hole{CType: t}, nil
}

// parseStateDef parses "<state>: transition (| transition)* ;".
func (p *parser) parseStateDef() error {
	src, err := p.parseStateRef()
	if err != nil {
		return err
	}
	p.noteState(src)
	if _, err := p.expect(tColon); err != nil {
		return err
	}
	for {
		tr, err := p.parseTransition(src)
		if err != nil {
			return err
		}
		p.c.Transitions = append(p.c.Transitions, tr)
		if p.accept(tPipe) {
			continue
		}
		_, err = p.expect(tSemi)
		return err
	}
}

// parseStateRef parses IDENT or IDENT.IDENT.
func (p *parser) parseStateRef() (StateRef, error) {
	name, err := p.expect(tIdent)
	if err != nil {
		return StateRef{}, err
	}
	if p.accept(tDot) {
		val, err := p.expect(tIdent)
		if err != nil {
			return StateRef{}, err
		}
		if _, ok := p.c.Vars[name.text]; !ok {
			return StateRef{}, fmt.Errorf("metal:%d: %q is not a declared state variable", name.line, name.text)
		}
		return StateRef{Var: name.text, Val: val.text}, nil
	}
	return StateRef{Val: name.text}, nil
}

func (p *parser) noteState(r StateRef) {
	if r.IsStop() {
		return
	}
	if r.Var == "" {
		if !p.seenGlobal[r.Val] {
			p.seenGlobal[r.Val] = true
			p.c.GlobalStates = append(p.c.GlobalStates, r.Val)
		}
		return
	}
	for _, s := range p.c.VarStates[r.Var] {
		if s == r.Val {
			return
		}
	}
	p.c.VarStates[r.Var] = append(p.c.VarStates[r.Var], r.Val)
}

// parseTransition parses "pattern ==> dest[, action]...".
func (p *parser) parseTransition(src StateRef) (*Transition, error) {
	line := p.cur().line
	pat, err := p.parsePatternExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tArrow); err != nil {
		return nil, err
	}
	tr := &Transition{ID: p.nextID, Source: src, Pat: pat, Line: line}
	p.nextID++

	// Destination: path-specific "true=X, false=Y" or a single ref.
	if p.cur().kind == tIdent && (p.cur().text == "true" || p.cur().text == "false") && p.la(1).kind == tAssign {
		tr.PathSpecific = true
		for i := 0; i < 2; i++ {
			which, err := p.expect(tIdent)
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(tAssign); err != nil {
				return nil, err
			}
			ref, err := p.parseStateRef()
			if err != nil {
				return nil, err
			}
			p.noteState(ref)
			switch which.text {
			case "true":
				tr.TrueDest = ref
			case "false":
				tr.FalseDest = ref
			default:
				return nil, p.errf("expected true= or false=, found %s=", which.text)
			}
			if i == 0 {
				if _, err := p.expect(tComma); err != nil {
					return nil, err
				}
			}
		}
	} else {
		ref, err := p.parseStateRef()
		if err != nil {
			return nil, err
		}
		p.noteState(ref)
		tr.Dest = ref
	}

	// Optional actions: ", { ... }" possibly repeated.
	for p.cur().kind == tComma && p.la(1).kind == tBrace {
		p.next() // ,
		blk := p.next()
		acts, err := parseActions(blk.text, blk.line)
		if err != nil {
			return nil, err
		}
		tr.Actions = append(tr.Actions, acts...)
	}
	return tr, p.validateTransition(tr)
}

// validateTransition checks state-variable consistency: a transition
// from a variable-specific state must target the same variable (or
// stop); creation transitions (from a global state into a var state)
// must bind the variable's hole in the pattern.
func (p *parser) validateTransition(tr *Transition) error {
	dests := []StateRef{tr.Dest}
	if tr.PathSpecific {
		dests = []StateRef{tr.TrueDest, tr.FalseDest}
	}
	for _, d := range dests {
		if d.Var == "" {
			continue
		}
		if _, ok := p.c.Vars[d.Var]; !ok {
			return fmt.Errorf("metal:%d: destination %s references undeclared variable %q", tr.Line, d, d.Var)
		}
		if tr.Source.Var != "" && tr.Source.Var != d.Var {
			return fmt.Errorf("metal:%d: transition from %s cannot target a different variable %s", tr.Line, tr.Source, d)
		}
		if tr.Source.Var == "" {
			// Creation transition: the pattern must bind the hole.
			if !pattern.HolesOf(tr.Pat)[d.Var] {
				return fmt.Errorf("metal:%d: creation transition to %s must bind %q in its pattern", tr.Line, d, d.Var)
			}
		}
	}
	return nil
}

// parsePatternExpr parses pattern compositions: base && base || ${..}.
func (p *parser) parsePatternExpr() (pattern.Pattern, error) {
	lhs, err := p.parsePatternPrimary()
	if err != nil {
		return nil, err
	}
	for {
		switch p.cur().kind {
		case tAndAnd:
			p.next()
			rhs, err := p.parsePatternPrimary()
			if err != nil {
				return nil, err
			}
			lhs = &pattern.And{X: lhs, Y: rhs}
		case tOrOr:
			p.next()
			rhs, err := p.parsePatternPrimary()
			if err != nil {
				return nil, err
			}
			lhs = &pattern.Or{X: lhs, Y: rhs}
		default:
			return lhs, nil
		}
	}
}

func (p *parser) parsePatternPrimary() (pattern.Pattern, error) {
	t := p.cur()
	switch t.kind {
	case tBrace:
		p.next()
		return pattern.CompileBase(t.text, p.c.Vars)
	case tCallout:
		p.next()
		return pattern.CompileCallout(t.text)
	case tEndOfPath:
		p.next()
		return pattern.EndOfPath{}, nil
	case tLParen:
		p.next()
		inner, err := p.parsePatternExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tRParen); err != nil {
			return nil, err
		}
		return inner, nil
	}
	return nil, p.errf("expected a pattern, found %v", t)
}

// parseActions parses the text of an action block: semicolon-separated
// calls to the verbs in Verbs.
func parseActions(text string, line int) ([]pattern.Call, error) {
	var out []pattern.Call
	for _, stmt := range splitStatements(text) {
		stmt = strings.TrimSpace(stmt)
		if stmt == "" {
			continue
		}
		act, err := pattern.ParseCall(stmt)
		if err != nil {
			return nil, fmt.Errorf("metal:%d: bad action %q: %v", line, stmt, err)
		}
		if !slices.Contains(Verbs, act.Fn) {
			return nil, fmt.Errorf("metal:%d: unknown action %s", line, act.Fn)
		}
		out = append(out, act)
	}
	return out, nil
}

// splitStatements splits on top-level semicolons, respecting strings
// and parentheses.
func splitStatements(s string) []string {
	var out []string
	depth := 0
	start := 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '(', '[':
			depth++
		case ')', ']':
			depth--
		case '"', '\'':
			i = skipQuoted(s, i)
		case ';':
			if depth == 0 {
				out = append(out, s[start:i])
				start = i + 1
			}
		}
	}
	if start < len(s) {
		out = append(out, s[start:])
	}
	return out
}
