// Package pattern implements metal patterns (§4 of the paper):
// bracketed code fragments in an extended version of C that match
// ASTs. Patterns contain typed hole variables (Table 1 meta types),
// compose with && and ||, and escape to general-purpose code through
// callouts (${...}).
package pattern

import (
	"fmt"
	"strings"

	"repro/internal/cc"
)

// MetaKind names a hole's type class (Table 1).
type MetaKind string

// Hole meta types. MetaNone means the hole carries a concrete C type.
const (
	MetaNone      MetaKind = ""
	MetaAnyExpr   MetaKind = "any_expr"
	MetaAnyScalar MetaKind = "any_scalar"
	MetaAnyPtr    MetaKind = "any_pointer"
	MetaAnyArgs   MetaKind = "any_arguments"
	MetaAnyFnCall MetaKind = "any_fn_call"
)

// KnownMeta reports whether s names a meta type.
func KnownMeta(s string) bool {
	switch MetaKind(s) {
	case MetaAnyExpr, MetaAnyScalar, MetaAnyPtr, MetaAnyArgs, MetaAnyFnCall:
		return true
	}
	return false
}

// Hole is a declared metal hole variable ("decl any_pointer v").
type Hole struct {
	Name  string
	Meta  MetaKind
	CType *cc.Type // set when Meta == MetaNone
}

// Binding is the AST material bound to a hole by a successful match.
// Exactly one of Expr / Args is meaningful: Args is used for
// any_arguments holes, which bind an entire argument list.
type Binding struct {
	Expr cc.Expr
	Args []cc.Expr
}

// String renders the binding as source text (what mc_identifier
// reports in error messages).
func (b Binding) String() string {
	if b.Expr != nil {
		return cc.ExprString(b.Expr)
	}
	parts := make([]string, len(b.Args))
	for i, a := range b.Args {
		parts[i] = cc.ExprString(a)
	}
	return strings.Join(parts, ", ")
}

// Bound is one hole's binding.
type Bound struct {
	Name string
	Binding
}

// Bindings lists what each bound hole matched, in binding order. A
// checker declares a handful of holes, so a lookup is a scan.
type Bindings []Bound

// Get returns the named hole's binding.
func (b Bindings) Get(name string) (Binding, bool) {
	for i := range b {
		if b[i].Name == name {
			return b[i].Binding, true
		}
	}
	return Binding{}, false
}

// binder is the bindings of one Base match in progress: prior itself
// until the first hole binds, which is when prior is copied into the
// context's buffer. A match that fails before binding anything — at the
// template's root type assertion, for nearly every attempt the engine
// makes — touches nothing, and one whose holes prior already holds
// returns prior.
type binder struct {
	ctx   *Ctx
	cur   Bindings
	bound bool
}

func (b *binder) set(name string, v Binding) {
	if !b.bound {
		// prior may be the buffer's own prefix (the left conjunct's
		// result): the copy then lands on itself.
		b.cur, b.bound = append(b.ctx.bnd[:0], b.cur...), true
	}
	b.cur = append(b.cur, Bound{name, v})
	b.ctx.bnd = b.cur
}

// CalloutFunc is a registered general-purpose predicate. It receives
// the match context and the evaluated arguments from the callout's
// source syntax.
type CalloutFunc func(ctx *Ctx, args []CalloutArg) bool

// CalloutArg is one argument to a callout: a bound hole (Bound=true),
// a string literal, or an integer literal.
type CalloutArg struct {
	Bound   bool
	Name    string // hole name when Bound
	Binding Binding
	Str     string
	IsStr   bool
	Int     int64
	IsInt   bool
}

// Registry resolves callout names to functions.
type Registry map[string]CalloutFunc

// Ctx is the context for one match attempt: the current program point,
// its function's type map, the callout registry, and whether this
// point is an end-of-path event.
type Ctx struct {
	Point     cc.Expr
	Types     cc.TypeMap
	Callouts  Registry
	EndOfPath bool
	// ReturnPoint marks the synthetic program point offered at a
	// return statement; Point holds the returned expression (nil for
	// a bare "return;"). Statement patterns match here.
	ReturnPoint bool
	// FuncName is the enclosing function, available to callouts.
	FuncName string
	// Locals names the enclosing function's locals, parameters included
	// (mc_is_local). BranchCond and ReturnExpr are the current block's
	// branch condition and returned expression, nil when it has none
	// (mc_is_branch_cond, mc_is_returned).
	Locals     map[string]bool
	BranchCond cc.Expr
	ReturnExpr cc.Expr
	// args is Callout.Match's argument buffer, reused from one callout
	// to the next: a callout does not re-enter Match and must not keep
	// its argument slice.
	args []CalloutArg
	// bnd is where a match binds (binder.set): a successful Match's
	// result is prior itself or a view of this buffer, good until the
	// next Match on the context. Whoever keeps bindings copies them.
	bnd Bindings
}

// Reset zeroes the context, argument and binding buffers included, but
// keeps the buffers' capacity: for an owner that must not pin what the
// last match looked at and will match again.
func (c *Ctx) Reset() {
	clear(c.args[:cap(c.args)])
	clear(c.bnd[:cap(c.bnd)])
	*c = Ctx{args: c.args[:0], bnd: c.bnd[:0]}
}

// Pattern is a compiled metal pattern.
type Pattern interface {
	// Match attempts to match at ctx.Point with the given prior
	// bindings (from sibling conjuncts), which it never writes; on
	// success it returns the extended bindings, prior first — prior
	// itself when nothing new bound, else a view of ctx's buffer that
	// the next Match on ctx overwrites.
	Match(ctx *Ctx, prior Bindings) (Bindings, bool)
	// String renders the pattern in metal syntax.
	String() string
}

// ---------------------------------------------------------------------------
// Base patterns
// ---------------------------------------------------------------------------

// Base is a bracketed code-fragment pattern, e.g. "{ kfree(v) }".
// Patterns are usually expressions; a small set of statement forms is
// also supported (§4 says patterns "can specify almost arbitrary
// language constructs"): "{ return v }" and "{ return }" match return
// statements.
type Base struct {
	Src   string
	Tmpl  cc.Expr
	holes map[string]*Hole
	// retTmpl is set for return-statement patterns: the template for
	// the returned expression (nil matches the bare "return;").
	isReturn bool
	retTmpl  cc.Expr
}

// CompileBase parses src (the text inside the braces) as a C
// expression — or as one of the supported statement forms — and
// substitutes declared hole variables.
func CompileBase(src string, holes map[string]*Hole) (*Base, error) {
	trimmed := strings.TrimSpace(src)
	if trimmed == "return" {
		return &Base{Src: src, isReturn: true}, nil
	}
	if rest, ok := strings.CutPrefix(trimmed, "return "); ok {
		e, err := cc.ParseExprString(rest)
		if err != nil {
			return nil, fmt.Errorf("pattern {%s}: %w", src, err)
		}
		return &Base{Src: src, isReturn: true, retTmpl: substituteHoles(e, holes)}, nil
	}
	e, err := cc.ParseExprString(src)
	if err != nil {
		return nil, fmt.Errorf("pattern {%s}: %w", src, err)
	}
	tmpl := substituteHoles(e, holes)
	return &Base{Src: src, Tmpl: tmpl, holes: holes}, nil
}

// substituteHoles rewrites identifiers that name declared holes into
// HoleExpr/HoleArgs nodes.
func substituteHoles(e cc.Expr, holes map[string]*Hole) cc.Expr {
	var sub func(x cc.Expr) cc.Expr
	sub = func(x cc.Expr) cc.Expr {
		switch x := x.(type) {
		case *cc.Ident:
			if h, ok := holes[x.Name]; ok {
				return &cc.HoleExpr{P: x.P, Name: h.Name, Meta: string(h.Meta), CType: h.CType}
			}
		case *cc.CallExpr:
			out := &cc.CallExpr{P: x.P, Fun: cc.Rewrite(x.Fun, sub)}
			for _, a := range x.Args {
				na := cc.Rewrite(a, sub)
				// A lone any_arguments hole stands for the entire list.
				if he, ok := na.(*cc.HoleExpr); ok && MetaKind(he.Meta) == MetaAnyArgs {
					na = &cc.HoleArgs{P: he.P, Name: he.Name}
				}
				out.Args = append(out.Args, na)
			}
			return out
		}
		return nil
	}
	return cc.Rewrite(e, sub)
}

// Match implements Pattern.
func (b *Base) Match(ctx *Ctx, prior Bindings) (Bindings, bool) {
	// A return pattern matches only the synthetic return point and an
	// expression pattern never does; a bare "return;" is the nil
	// template against the nil point, which matchExpr accepts.
	tmpl, isReturn := b.Template()
	if isReturn != ctx.ReturnPoint || (!isReturn && ctx.Point == nil) {
		return nil, false
	}
	bnd := binder{ctx: ctx, cur: prior}
	if !matchExpr(ctx, tmpl, ctx.Point, &bnd) {
		return nil, false
	}
	return bnd.cur, true
}

// String implements Pattern.
func (b *Base) String() string { return "{ " + b.Src + " }" }

// Template exposes the pattern's structural template and whether it
// is a return-statement pattern (then the template is the returned
// expression's, nil for bare "return;"). The engine's block
// pre-filter reads the root node through this.
func (b *Base) Template() (cc.Expr, bool) {
	if b.isReturn {
		return b.retTmpl, true
	}
	return b.Tmpl, false
}

// matchExpr matches the template against the target, extending bnd.
func matchExpr(ctx *Ctx, tmpl, target cc.Expr, bnd *binder) bool {
	if tmpl == nil || target == nil {
		return tmpl == nil && target == nil
	}
	switch t := tmpl.(type) {
	case *cc.HoleExpr:
		return matchHole(ctx, t, target, bnd)
	case *cc.Ident:
		tg, ok := target.(*cc.Ident)
		return ok && t.Name == tg.Name
	case *cc.IntLit:
		tg, ok := target.(*cc.IntLit)
		return ok && t.Value == tg.Value
	case *cc.FloatLit:
		tg, ok := target.(*cc.FloatLit)
		return ok && t.Text == tg.Text
	case *cc.CharLit:
		tg, ok := target.(*cc.CharLit)
		return ok && t.Text == tg.Text
	case *cc.StringLit:
		tg, ok := target.(*cc.StringLit)
		return ok && t.Text == tg.Text
	case *cc.UnaryExpr:
		tg, ok := target.(*cc.UnaryExpr)
		return ok && t.Op == tg.Op && t.Postfix == tg.Postfix && matchExpr(ctx, t.X, tg.X, bnd)
	case *cc.BinaryExpr:
		tg, ok := target.(*cc.BinaryExpr)
		return ok && t.Op == tg.Op && matchExpr(ctx, t.X, tg.X, bnd) && matchExpr(ctx, t.Y, tg.Y, bnd)
	case *cc.AssignExpr:
		tg, ok := target.(*cc.AssignExpr)
		return ok && t.Op == tg.Op && matchExpr(ctx, t.LHS, tg.LHS, bnd) && matchExpr(ctx, t.RHS, tg.RHS, bnd)
	case *cc.CondExpr:
		tg, ok := target.(*cc.CondExpr)
		return ok && matchExpr(ctx, t.Cond, tg.Cond, bnd) &&
			matchExpr(ctx, t.Then, tg.Then, bnd) && matchExpr(ctx, t.Else, tg.Else, bnd)
	case *cc.CallExpr:
		tg, ok := target.(*cc.CallExpr)
		if !ok {
			return false
		}
		// "{ fn(args) }" with fn : any_fn_call matches any call; fn
		// binds to the whole call expression so callouts like
		// mc_is_call_to(fn, ...) can inspect it (§4).
		if h, isHole := t.Fun.(*cc.HoleExpr); isHole && MetaKind(h.Meta) == MetaAnyFnCall {
			if !matchHole(ctx, h, tg, bnd) {
				return false
			}
		} else if !matchExpr(ctx, t.Fun, tg.Fun, bnd) {
			return false
		}
		// any_arguments hole as the sole template argument swallows
		// the whole target list.
		if len(t.Args) == 1 {
			if ha, ok := t.Args[0].(*cc.HoleArgs); ok {
				return bindArgs(ha, tg.Args, bnd)
			}
		}
		if len(t.Args) != len(tg.Args) {
			return false
		}
		for i := range t.Args {
			if !matchExpr(ctx, t.Args[i], tg.Args[i], bnd) {
				return false
			}
		}
		return true
	case *cc.IndexExpr:
		tg, ok := target.(*cc.IndexExpr)
		return ok && matchExpr(ctx, t.X, tg.X, bnd) && matchExpr(ctx, t.Index, tg.Index, bnd)
	case *cc.FieldExpr:
		tg, ok := target.(*cc.FieldExpr)
		return ok && t.Name == tg.Name && t.Arrow == tg.Arrow && matchExpr(ctx, t.X, tg.X, bnd)
	case *cc.CastExpr:
		tg, ok := target.(*cc.CastExpr)
		return ok && cc.SameType(t.To, tg.To) && matchExpr(ctx, t.X, tg.X, bnd)
	case *cc.SizeofExpr:
		tg, ok := target.(*cc.SizeofExpr)
		if !ok {
			return false
		}
		if t.Type != nil || tg.Type != nil {
			return t.Type != nil && tg.Type != nil && cc.SameType(t.Type, tg.Type)
		}
		return matchExpr(ctx, t.X, tg.X, bnd)
	case *cc.CommaExpr:
		tg, ok := target.(*cc.CommaExpr)
		if !ok || len(t.List) != len(tg.List) {
			return false
		}
		for i := range t.List {
			if !matchExpr(ctx, t.List[i], tg.List[i], bnd) {
				return false
			}
		}
		return true
	}
	return false
}

// matchHole checks a hole against a target expression: type constraint
// plus repeated-hole consistency ("If the same hole variable appears
// multiple times in a pattern, each appearance must contain equivalent
// ASTs", §4).
func matchHole(ctx *Ctx, h *cc.HoleExpr, target cc.Expr, bnd *binder) bool {
	if prev, ok := bnd.cur.Get(h.Name); ok {
		if prev.Expr == nil || !cc.EqualExpr(prev.Expr, target) {
			return false
		}
		return true
	}
	if !holeTypeOK(ctx, h, target) {
		return false
	}
	bnd.set(h.Name, Binding{Expr: target})
	return true
}

func holeTypeOK(ctx *Ctx, h *cc.HoleExpr, target cc.Expr) bool {
	switch MetaKind(h.Meta) {
	case MetaAnyExpr:
		return true
	case MetaAnyFnCall:
		_, ok := target.(*cc.CallExpr)
		return ok
	case MetaAnyArgs:
		// An any_arguments hole outside a call argument position
		// cannot match a single expression.
		return false
	case MetaAnyPtr:
		t := typeOf(ctx, target)
		return t.IsPointer() || t.IsUnknown()
	case MetaAnyScalar:
		t := typeOf(ctx, target)
		return t.IsScalar() || t.IsUnknown()
	case MetaNone:
		if h.CType == nil {
			return true
		}
		t := typeOf(ctx, target)
		return t.IsUnknown() || cc.SameType(h.CType, t)
	}
	return false
}

func typeOf(ctx *Ctx, e cc.Expr) *cc.Type {
	if ctx.Types == nil {
		return cc.TypeUnknownV
	}
	return ctx.Types.TypeOf(e)
}

func bindArgs(h *cc.HoleArgs, args []cc.Expr, bnd *binder) bool {
	if prev, ok := bnd.cur.Get(h.Name); ok {
		if len(prev.Args) != len(args) {
			return false
		}
		for i := range args {
			if !cc.EqualExpr(prev.Args[i], args[i]) {
				return false
			}
		}
		return true
	}
	bnd.set(h.Name, Binding{Args: args})
	return true
}

// ---------------------------------------------------------------------------
// Combinators
// ---------------------------------------------------------------------------

// And matches when both operands match; bindings flow left to right,
// so callouts on the right see holes bound on the left (§4).
type And struct {
	X, Y Pattern
}

// Match implements Pattern.
func (a *And) Match(ctx *Ctx, prior Bindings) (Bindings, bool) {
	b1, ok := a.X.Match(ctx, prior)
	if !ok {
		return nil, false
	}
	return a.Y.Match(ctx, b1)
}

// String implements Pattern.
func (a *And) String() string { return a.X.String() + " && " + a.Y.String() }

// Or matches when either operand matches, preferring the left.
type Or struct {
	X, Y Pattern
}

// Match implements Pattern.
func (o *Or) Match(ctx *Ctx, prior Bindings) (Bindings, bool) {
	if b, ok := o.X.Match(ctx, prior); ok {
		return b, true
	}
	return o.Y.Match(ctx, prior)
}

// String implements Pattern.
func (o *Or) String() string { return o.X.String() + " || " + o.Y.String() }

// Callout is a ${...} escape: a boolean general-purpose predicate
// identified by function name. The degenerate callouts ${0} and ${1}
// match nothing and everything respectively.
type Callout struct {
	Raw string
	// Const is set for ${0} / ${1}.
	Const    bool
	ConstVal bool
	// FnName and ArgSrcs describe a call-form callout,
	// e.g. ${ mc_is_call_to(fn, "gets") }.
	FnName  string
	ArgSrcs []calloutArgSrc
}

type calloutArgSrc struct {
	hole  string
	str   string
	isStr bool
	num   int64
	isNum bool
}

// CompileCallout parses the text inside ${...}.
func CompileCallout(src string) (*Callout, error) {
	s := strings.TrimSpace(src)
	if s == "0" || s == "1" {
		return &Callout{Raw: src, Const: true, ConstVal: s == "1"}, nil
	}
	e, err := cc.ParseExprString(s)
	if err != nil {
		return nil, fmt.Errorf("callout ${%s}: %w", src, err)
	}
	call, ok := e.(*cc.CallExpr)
	if !ok {
		return nil, fmt.Errorf("callout ${%s}: must be 0, 1, or a call to a registered function", src)
	}
	fn, ok := call.Fun.(*cc.Ident)
	if !ok {
		return nil, fmt.Errorf("callout ${%s}: function must be a name", src)
	}
	c := &Callout{Raw: src, FnName: fn.Name}
	for _, a := range call.Args {
		switch a := a.(type) {
		case *cc.Ident:
			c.ArgSrcs = append(c.ArgSrcs, calloutArgSrc{hole: a.Name})
		case *cc.StringLit:
			c.ArgSrcs = append(c.ArgSrcs, calloutArgSrc{str: a.Text, isStr: true})
		case *cc.IntLit:
			c.ArgSrcs = append(c.ArgSrcs, calloutArgSrc{num: a.Value, isNum: true})
		default:
			return nil, fmt.Errorf("callout ${%s}: arguments must be hole names or literals", src)
		}
	}
	return c, nil
}

// Match implements Pattern.
func (c *Callout) Match(ctx *Ctx, prior Bindings) (Bindings, bool) {
	if c.Const {
		if c.ConstVal {
			return prior, true
		}
		return nil, false
	}
	fn, ok := ctx.Callouts[c.FnName]
	if !ok {
		return nil, false
	}
	args := ctx.args[:0]
	for _, src := range c.ArgSrcs {
		switch {
		case src.isStr:
			args = append(args, CalloutArg{Str: src.str, IsStr: true})
		case src.isNum:
			args = append(args, CalloutArg{Int: src.num, IsInt: true})
		default:
			b, _ := prior.Get(src.hole)
			args = append(args, CalloutArg{Bound: true, Name: src.hole, Binding: b})
		}
	}
	ctx.args = args
	if fn(ctx, args) {
		return prior, true
	}
	return nil, false
}

// CallTo reports whether the callout is ${ mc_is_call_to(hole, "name") }:
// the one builtin whose meaning is syntactic — it holds only where the
// hole's binding is a call whose function is the identifier name. The
// engine's pre-filter reads it to key such a conjunct by callee.
func (c *Callout) CallTo() (hole, name string, ok bool) {
	if c.FnName != "mc_is_call_to" || len(c.ArgSrcs) != 2 {
		return "", "", false
	}
	h, n := c.ArgSrcs[0], c.ArgSrcs[1]
	if h.isStr || h.isNum || !n.isStr {
		return "", "", false
	}
	return h.hole, n.str, true
}

// String implements Pattern.
func (c *Callout) String() string { return "${" + c.Raw + "}" }

// EndOfPath is the special $end_of_path$ pattern (§3.2): it matches
// when an instance permanently leaves scope or the path terminates.
type EndOfPath struct{}

// Match implements Pattern.
func (EndOfPath) Match(ctx *Ctx, prior Bindings) (Bindings, bool) {
	if ctx.EndOfPath {
		return prior, true
	}
	return nil, false
}

// String implements Pattern.
func (EndOfPath) String() string { return "$end_of_path$" }

// MayMatchEndOfPath reports whether p can possibly match at an
// end-of-path dispatch (ctx.EndOfPath set, no program point). The
// engine's compiled dispatch uses it to distinguish patterns that need
// a syntactic trigger inside some block from patterns that fire when a
// path simply terminates: a Base pattern always needs a point (return
// patterns need ReturnPoint, expression patterns need Point), ${0}
// never matches, and unknown callouts are conservatively assumed to
// match.
func MayMatchEndOfPath(p Pattern) bool {
	switch p := p.(type) {
	case *Base:
		return false
	case *And:
		return MayMatchEndOfPath(p.X) && MayMatchEndOfPath(p.Y)
	case *Or:
		return MayMatchEndOfPath(p.X) || MayMatchEndOfPath(p.Y)
	case *Callout:
		return !p.Const || p.ConstVal
	case EndOfPath:
		return true
	default:
		return true
	}
}

// Walk visits p and every subpattern in syntax order. The engine uses
// it to discover which callouts a checker's patterns invoke (checker
// composition dependencies).
func Walk(p Pattern, visit func(Pattern)) {
	if p == nil {
		return
	}
	visit(p)
	switch p := p.(type) {
	case *And:
		Walk(p.X, visit)
		Walk(p.Y, visit)
	case *Or:
		Walk(p.X, visit)
		Walk(p.Y, visit)
	}
}

// HolesOf lists the hole names a pattern can bind, in no particular
// order. The metal checker uses it to validate transitions.
func HolesOf(p Pattern) map[string]bool {
	out := map[string]bool{}
	var walk func(Pattern)
	walk = func(p Pattern) {
		switch p := p.(type) {
		case *Base:
			tmpl := p.Tmpl
			if p.isReturn {
				tmpl = p.retTmpl
			}
			cc.WalkExpr(tmpl, func(e cc.Expr) bool {
				switch e := e.(type) {
				case *cc.HoleExpr:
					out[e.Name] = true
				case *cc.HoleArgs:
					out[e.Name] = true
				}
				return true
			})
		case *And:
			walk(p.X)
			walk(p.Y)
		case *Or:
			walk(p.X)
			walk(p.Y)
		}
	}
	walk(p)
	return out
}
