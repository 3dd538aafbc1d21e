package core

// Per-block transition pre-filters (DESIGN.md §10). Most checkers
// watch for a handful of syntactic shapes — usually calls to a few
// named functions — so most blocks cannot fire any transition of most
// state refs. The engine derives, per transition, a conservative
// description of the program points its pattern could possibly match
// (root AST-node kind, callee name, return-statement), and per block a
// cheap syntactic feature summary (which root kinds occur, which
// functions are called by name, whether the block returns). A state
// ref whose transitions all miss the block's features skips pattern
// dispatch there entirely. The filter is sound-by-construction: every
// atom below is implied by the structural requirements Base.Match
// places on the target's root node, so a filtered-out dispatch could
// never have matched.

import (
	"slices"

	"repro/internal/cc"
	"repro/internal/cfg"
	"repro/internal/pattern"
	"repro/internal/prog"
)

// Root node kinds for the pre-filter. Every matchExpr template case
// type-asserts the target to the template's own concrete node type,
// so a template rooted at kind k only matches points of kind k.
const (
	kindAny int8 = iota - 1 // no constraint (hole at root)
	kindCall
	kindIdent
	kindIntLit
	kindFloatLit
	kindCharLit
	kindStrLit
	kindUnary
	kindBinary
	kindAssign
	kindCond
	kindIndex
	kindField
	kindCast
	kindSizeof
	kindComma
	kindCount // number of concrete kinds (mask width)
)

func kindOf(e cc.Expr) int8 {
	switch e.(type) {
	case *cc.CallExpr:
		return kindCall
	case *cc.Ident:
		return kindIdent
	case *cc.IntLit:
		return kindIntLit
	case *cc.FloatLit:
		return kindFloatLit
	case *cc.CharLit:
		return kindCharLit
	case *cc.StringLit:
		return kindStrLit
	case *cc.UnaryExpr:
		return kindUnary
	case *cc.BinaryExpr:
		return kindBinary
	case *cc.AssignExpr:
		return kindAssign
	case *cc.CondExpr:
		return kindCond
	case *cc.IndexExpr:
		return kindIndex
	case *cc.FieldExpr:
		return kindField
	case *cc.CastExpr:
		return kindCast
	case *cc.SizeofExpr:
		return kindSizeof
	case *cc.CommaExpr:
		return kindComma
	}
	return kindAny
}

// filterAtom is one conjunctive requirement a pattern places on a
// program point: a return-statement point, or an in-block point of a
// specific root kind, optionally requiring some call to a named
// function in the same block. The zero atom (kind == kindAny after
// construction) requires nothing.
//
// A callee requirement comes in two strengths. With rootCallee set the
// point itself must be a call to that name (the template's root is
// "name(...)"). Without it the name is a nested requirement: the
// template contains a concrete call to the name somewhere below the
// root, so any matching point carries an identically-named call as a
// subexpression — and since the CFG keeps whole expression trees in
// one block and ExecOrder emits every subexpression as a point (sizeof
// operands excepted; see requiredCallee), that call is itself a point
// of the same block and lands in the block's callee set.
type filterAtom struct {
	ret        bool
	kind       int8
	callee     string
	rootCallee bool
}

var anyAtom = filterAtom{kind: kindAny}

// conjoin merges two atoms; ok is false when they contradict.
func conjoin(a, b filterAtom) (filterAtom, bool) {
	if a == anyAtom {
		return b, true
	}
	if b == anyAtom {
		return a, true
	}
	if a.ret != b.ret {
		// A return-statement pattern matches only ReturnPoint
		// dispatches; an in-block shape pattern never does.
		return filterAtom{}, false
	}
	if !a.ret && a.kind != b.kind {
		return filterAtom{}, false
	}
	return mergeCallee(a, b)
}

// mergeCallee combines the callee requirements of two atoms that agree
// on ret/kind. Differing names contradict only when both are ROOT
// callees — the point cannot be a call to two different functions. Two
// differing nested requirements can both hold (e.g. "{ v + f(w) }" and
// "{ g(x) + y }" both match "g(1) + f(2)"), so the merge keeps one of
// them — a sound over-approximation, preferring the root-strength name.
func mergeCallee(a, b filterAtom) (filterAtom, bool) {
	switch {
	case a.callee == "":
		return b, true
	case b.callee == "":
		return a, true
	case a.callee == b.callee:
		a.rootCallee = a.rootCallee || b.rootCallee
		return a, true
	case a.rootCallee && b.rootCallee:
		return filterAtom{}, false
	case b.rootCallee:
		return b, true
	}
	return a, true
}

// filterOf computes the pattern's filter: the disjunction of its
// alternatives. An empty list means the pattern can never match at an
// in-block or return point (e.g. ${0}, or pure $end_of_path$).
// Soundness invariant: if p.Match(ctx, prior) can succeed at an
// in-block or return-statement dispatch for ANY prior, some atom
// accepts that point.
//
// Callouts are opaque, with one exception when callTo says the
// checker's mc_is_call_to is the builtin: as the right conjunct of an
// And whose left side binds fn to the point (bindsPointCall),
// ${ mc_is_call_to(fn, "name") } holds only where the point is a call
// to name — the atom "{ name(args) }" has — so the §4 idiom
// "{ fn(args) } && ${ mc_is_call_to(fn, "name") }" joins the callee index.
func filterOf(p pattern.Pattern, callTo bool) []filterAtom {
	switch p := p.(type) {
	case *pattern.Base:
		return []filterAtom{baseAtom(p)}
	case *pattern.And:
		right := filterOf(p.Y, callTo)
		if co, ok := p.Y.(*pattern.Callout); ok && callTo {
			if h, name, ok := co.CallTo(); ok && bindsPointCall(p.X, h) {
				right = []filterAtom{{kind: kindCall, callee: name, rootCallee: true}}
			}
		}
		var atoms []filterAtom
		for _, a := range filterOf(p.X, callTo) {
			for _, b := range right {
				if c, ok := conjoin(a, b); ok {
					atoms = append(atoms, c)
				}
			}
		}
		return atoms
	case *pattern.Or:
		return append(filterOf(p.X, callTo), filterOf(p.Y, callTo)...)
	case *pattern.Callout:
		if p.Const && !p.ConstVal {
			return nil // ${0}: never matches
		}
		return []filterAtom{anyAtom}
	case pattern.EndOfPath:
		// In-block and return-point dispatches always carry
		// EndOfPath == false; the exit-block endOfPath pass dispatches
		// without the filter.
		return nil
	default:
		return []filterAtom{anyAtom}
	}
}

// baseAtom derives a Base pattern's root requirement. The template's
// root node constrains the point: a hole root matches any expression
// (hole type checks are prior-dependent and so unusable here), while a
// concrete root node forces the point's kind, and an identifier-called
// template forces the callee name. Templates whose root carries no
// callee are additionally mined for a nested required callee (see
// requiredCallee) — the key that lets shapes like "{ v = kmalloc(args) }"
// join the multi-checker callee index.
func baseAtom(b *pattern.Base) filterAtom {
	tmpl, isReturn := b.Template()
	if isReturn {
		atom := filterAtom{ret: true}
		if call, ok := tmpl.(*cc.CallExpr); ok {
			if id, ok := call.Fun.(*cc.Ident); ok {
				atom.callee, atom.rootCallee = id.Name, true
				return atom
			}
		}
		atom.callee = requiredCallee(tmpl)
		return atom
	}
	switch t := tmpl.(type) {
	case *cc.HoleExpr:
		return anyAtom
	case *cc.CallExpr:
		atom := filterAtom{kind: kindCall}
		if id, ok := t.Fun.(*cc.Ident); ok {
			atom.callee, atom.rootCallee = id.Name, true
		} else {
			atom.callee = requiredCallee(t)
		}
		return atom
	default:
		return filterAtom{kind: kindOf(tmpl), callee: requiredCallee(tmpl)}
	}
}

// bindsPointCall reports whether p, whenever it matches, leaves hole h
// bound to an expression equal to the point, which is a call: p is the
// Base "{ h(args) }" with h an any_fn_call hole — matchExpr binds h to
// the whole call or, when the prior already holds h, requires that
// binding to be EqualExpr to it — or an And with such a conjunct on
// either side, since no pattern rebinds a bound hole.
func bindsPointCall(p pattern.Pattern, h string) bool {
	switch p := p.(type) {
	case *pattern.Base:
		tmpl, isReturn := p.Template()
		call, ok := tmpl.(*cc.CallExpr)
		if isReturn || !ok {
			return false
		}
		fn, ok := call.Fun.(*cc.HoleExpr)
		return ok && fn.Name == h && pattern.MetaKind(fn.Meta) == pattern.MetaAnyFnCall
	case *pattern.And:
		return bindsPointCall(p.X, h) || bindsPointCall(p.Y, h)
	}
	return false
}

// requiredCallee finds a function name the template forces into any
// containing block's callee set: a concrete call "name(...)" somewhere
// in the template (not under a hole — holes have no template subtrees)
// must match an identically-named call node inside the target
// expression, and every template node on the path down to it matches a
// same-typed target node, so the target's call is a subexpression the
// block's ExecOrder expansion emits as its own program point. The one
// exception is sizeof: its operand is matched structurally but never
// evaluated, so ExecOrder does not emit points inside it and nothing
// below a SizeofExpr may be required.
func requiredCallee(e cc.Expr) string {
	name := ""
	cc.WalkExpr(e, func(x cc.Expr) bool {
		if name != "" {
			return false
		}
		if call, ok := x.(*cc.CallExpr); ok {
			if id, ok := call.Fun.(*cc.Ident); ok {
				name = id.Name
			}
		}
		_, isSizeof := x.(*cc.SizeofExpr)
		return !isSizeof
	})
	return name
}

// blockFeats summarizes a block's program points for the filter. The
// dispatch compiler reloads one per block (load), so its callee list
// keeps its array from block to block.
type blockFeats struct {
	kinds    uint32   // bit i set iff some point has root kind i
	callees  []string // the names called directly, each once
	isReturn bool
}

// load computes the block's features from the point expansion runFrom
// dispatches over.
func (f *blockFeats) load(b *cfg.Block) {
	f.kinds, f.callees, f.isReturn = 0, f.callees[:0], b.IsReturn
	for _, pt := range b.Points {
		k := kindOf(pt)
		if k >= 0 {
			f.kinds |= 1 << uint(k)
		}
		if call, ok := pt.(*cc.CallExpr); ok {
			if id, ok := call.Fun.(*cc.Ident); ok && !f.calls(id.Name) {
				f.callees = append(f.callees, id.Name)
			}
		}
	}
}

// calls reports whether some point of the block calls name directly. A
// block calls a handful of names, so the list is scanned.
func (f *blockFeats) calls(name string) bool { return slices.Contains(f.callees, name) }

// admits reports whether some point of the block can satisfy the atom.
// Callee requirements — root or nested — check the block's callee set:
// a nested requirement's call node is itself a point of the same block
// (see filterAtom), so absence from the set rules the atom out.
func (f *blockFeats) admits(a filterAtom) bool {
	if a == anyAtom {
		return true
	}
	if a.ret {
		return f.isReturn && (a.callee == "" || f.calls(a.callee))
	}
	if f.kinds&(1<<uint(a.kind)) == 0 {
		return false
	}
	return a.callee == "" || f.calls(a.callee)
}

// mayFire reports whether any of the rules sourced at one state
// (stateIdx.at) can possibly match at some point of the block: a
// probe of the compiled per-block admit bitset (one walk per block at
// compile time, shared across engines) for the rules' entry ids.
func (en *Engine) mayFire(fn *prog.Function, b *cfg.Block, src *srcRules) bool {
	return en.compiled.blockAdmit[fn.Index][b.ID].anyOf(src.entries)
}
