package fpp

// The reference implementation: the string-keyed, map-of-maps
// environment and union-find this package shipped before the flat Env,
// kept test-only as the oracle the new one is checked against. It is
// not a second product path — nothing outside _test.go names it.

import (
	"fmt"
	"regexp"
	"sort"
	"strconv"
	"strings"

	"repro/internal/cc"
)

// refEnv is the map-based environment the flat Env replaced, kept as the
// oracle of the differential tests (diff_test.go). It has since gained
// the closure's two later rules (unionFind.consistent checks orderings
// into a constant class too; assert unions a <= pair), so the two
// implementations keep agreeing on every verdict.
type refEnv struct {
	// versions renames variables on assignment (§8 step 1: "For each
	// assignment to a variable, we assign a new name to that variable
	// so that different definitions of the variable are not
	// confused").
	versions     map[string]int
	uf           *unionFind
	contradicted bool
	// fp caches Fingerprint(); mutations invalidate it.
	fp      string
	fpValid bool
}

// newRefEnv returns an empty reference environment.
func newRefEnv() *refEnv {
	return &refEnv{versions: map[string]int{}, uf: newUnionFind()}
}

// Clone deep-copies the environment.
func (e *refEnv) Clone() *refEnv {
	out := &refEnv{
		versions:     make(map[string]int, len(e.versions)),
		uf:           e.uf.clone(),
		contradicted: e.contradicted,
		fp:           e.fp,
		fpValid:      e.fpValid,
	}
	for k, v := range e.versions {
		out.versions[k] = v
	}
	return out
}

// Contradicted reports whether the path's facts became inconsistent
// (the path is infeasible).
func (e *refEnv) Contradicted() bool { return e.contradicted }

// term renders an expression with version-subscripted variable names,
// or "" if the expression is too complex to name stably.
func (e *refEnv) term(x cc.Expr) string {
	switch x := x.(type) {
	case *cc.Ident:
		return fmt.Sprintf("%s#%d", x.Name, e.versions[x.Name])
	case *cc.IntLit:
		return constTerm(x.Value)
	case *cc.CharLit:
		if v, ok := cc.ConstEval(x); ok {
			return constTerm(v)
		}
		return ""
	case *cc.UnaryExpr:
		if x.Op == cc.TokMinus {
			if v, ok := e.constOf(x.X); ok {
				return constTerm(-v)
			}
		}
		inner := e.term(x.X)
		if inner == "" {
			return ""
		}
		return x.Op.String() + "(" + inner + ")"
	case *cc.BinaryExpr:
		// Try full constant folding through known values first.
		if v, ok := e.eval(x); ok {
			return constTerm(v)
		}
		l, r := e.term(x.X), e.term(x.Y)
		if l == "" || r == "" {
			return ""
		}
		return "(" + l + x.Op.String() + r + ")"
	case *cc.FieldExpr:
		inner := e.term(x.X)
		if inner == "" {
			return ""
		}
		sep := "."
		if x.Arrow {
			sep = "->"
		}
		return inner + sep + x.Name
	case *cc.IndexExpr:
		b, i := e.term(x.X), e.term(x.Index)
		if b == "" || i == "" {
			return ""
		}
		return b + "[" + i + "]"
	case *cc.CastExpr:
		return e.term(x.X)
	}
	return ""
}

// constOf resolves an expression to a known constant through the
// equivalence classes.
func (e *refEnv) constOf(x cc.Expr) (int64, bool) {
	if v, ok := cc.ConstEval(x); ok {
		return v, true
	}
	t := e.term(x)
	if t == "" {
		return 0, false
	}
	return e.uf.constOf(t)
}

// eval tries to evaluate an expression using tracked values (§8 step
// 2: "If we know that x is 10, then we will assign y the value 11").
func (e *refEnv) eval(x cc.Expr) (int64, bool) {
	return cc.ConstEvalEnv(x, func(name string) (int64, bool) {
		return e.uf.constOf(e.term(&cc.Ident{Name: name}))
	})
}

// Assign records "lhs = rhs": the left side gets a fresh version, then
// an equality to the evaluated right side when it is trackable.
func (e *refEnv) Assign(lhs, rhs cc.Expr) {
	id, ok := lhs.(*cc.Ident)
	if !ok {
		// Assignments through *p, a[i], s->f: havoc nothing (the
		// object named is not version-tracked), stay conservative.
		return
	}
	// Evaluate the RHS in the *old* environment before renaming.
	rhsTerm := ""
	if v, ok := e.eval(rhs); ok {
		rhsTerm = constTerm(v)
	} else {
		rhsTerm = e.term(rhs)
	}
	e.versions[id.Name]++
	e.fpValid = false
	if rhsTerm != "" {
		e.uf.union(e.term(id), rhsTerm)
	}
}

// Havoc invalidates a variable: an increment or compound update, or an
// address passed to a call.
func (e *refEnv) Havoc(name string) {
	e.versions[name]++
	e.fpValid = false
}

// EvalCond evaluates a branch condition against the facts (§8 step 5).
func (e *refEnv) EvalCond(cond cc.Expr) Verdict {
	if v, ok := e.eval(cond); ok {
		if v != 0 {
			return MustTrue
		}
		return MustFalse
	}
	return e.evalRelation(cond)
}

// evalRelation consults equivalence classes and orderings for
// comparison conditions that constant evaluation couldn't settle.
func (e *refEnv) evalRelation(cond cc.Expr) Verdict {
	switch cond := cond.(type) {
	case *cc.UnaryExpr:
		if cond.Op == cc.TokNot {
			switch e.EvalCond(cond.X) {
			case MustTrue:
				return MustFalse
			case MustFalse:
				return MustTrue
			}
			return Unknown
		}
	case *cc.BinaryExpr:
		switch cond.Op {
		case cc.TokAndAnd:
			l, r := e.EvalCond(cond.X), e.EvalCond(cond.Y)
			if l == MustFalse || r == MustFalse {
				return MustFalse
			}
			if l == MustTrue && r == MustTrue {
				return MustTrue
			}
			return Unknown
		case cc.TokOrOr:
			l, r := e.EvalCond(cond.X), e.EvalCond(cond.Y)
			if l == MustTrue || r == MustTrue {
				return MustTrue
			}
			if l == MustFalse && r == MustFalse {
				return MustFalse
			}
			return Unknown
		case cc.TokEq, cc.TokNe, cc.TokLt, cc.TokGt, cc.TokLe, cc.TokGe:
			lt, rt := e.term(cond.X), e.term(cond.Y)
			if lt == "" || rt == "" {
				return Unknown
			}
			return e.uf.relate(cond.Op, lt, rt)
		}
	case *cc.Ident, *cc.FieldExpr, *cc.IndexExpr:
		// Bare truth test: x is true iff x != 0.
		t := e.term(cond)
		if t == "" {
			return Unknown
		}
		return e.uf.relate(cc.TokNe, t, constTerm(0))
	}
	return Unknown
}

// AssumeCond asserts that cond evaluated to the given truth value on
// this path (§8 step 1: "If we see the statement (x < y), we record
// that x < y holds along the true branch and x >= y holds along the
// false branch"). Contradictions mark the environment infeasible.
func (e *refEnv) AssumeCond(cond cc.Expr, truth bool) {
	switch cond := cond.(type) {
	case *cc.UnaryExpr:
		if cond.Op == cc.TokNot {
			e.AssumeCond(cond.X, !truth)
			return
		}
	case *cc.BinaryExpr:
		switch cond.Op {
		case cc.TokAndAnd:
			if truth {
				e.AssumeCond(cond.X, true)
				e.AssumeCond(cond.Y, true)
			}
			// !(a && b) is a disjunction; nothing definite.
			return
		case cc.TokOrOr:
			if !truth {
				e.AssumeCond(cond.X, false)
				e.AssumeCond(cond.Y, false)
			}
			return
		case cc.TokEq, cc.TokNe, cc.TokLt, cc.TokGt, cc.TokLe, cc.TokGe:
			op := cond.Op
			if !truth {
				op = negateRel(op)
			}
			lt, rt := e.term(cond.X), e.term(cond.Y)
			if lt == "" || rt == "" {
				return
			}
			e.fpValid = false
			if !e.uf.assert(op, lt, rt) {
				e.contradicted = true
			}
			return
		case cc.TokPlus, cc.TokMinus, cc.TokStar, cc.TokSlash, cc.TokPercent,
			cc.TokAmp, cc.TokPipe, cc.TokCaret, cc.TokShl, cc.TokShr:
			// Arithmetic condition: truth says != 0 (weak).
			e.assumeTruthy(cond, truth)
			return
		}
	case *cc.AssignExpr:
		// if ((x = f())) — record the assignment, then the truth of x.
		e.Assign(cond.LHS, cond.RHS)
		e.assumeTruthy(cond.LHS, truth)
		return
	}
	e.assumeTruthy(cond, truth)
}

// assumeTruthy records expr != 0 (truth) or expr == 0 (!truth).
func (e *refEnv) assumeTruthy(x cc.Expr, truth bool) {
	e.fpValid = false
	t := e.term(x)
	if t == "" {
		return
	}
	op := cc.TokNe
	if !truth {
		op = cc.TokEq
	}
	if !e.uf.assert(op, t, constTerm(0)) {
		e.contradicted = true
	}
}

// AssumeCase asserts tag == val (switch dispatch).
func (e *refEnv) AssumeCase(tag cc.Expr, val int64) {
	t := e.term(tag)
	if t == "" {
		return
	}
	e.fpValid = false
	if !e.uf.assert(cc.TokEq, t, constTerm(val)) {
		e.contradicted = true
	}
}

// AssumeNotCase asserts tag != val (the default edge given the listed
// cases).
func (e *refEnv) AssumeNotCase(tag cc.Expr, val int64) {
	t := e.term(tag)
	if t == "" {
		return
	}
	e.fpValid = false
	if !e.uf.assert(cc.TokNe, t, constTerm(val)) {
		e.contradicted = true
	}
}

// Fingerprint summarizes the environment for cache keying; equal
// environments produce equal fingerprints. The result is cached until
// the next mutation.
func (e *refEnv) Fingerprint() string {
	if !e.fpValid {
		e.fp = e.uf.fingerprint(e.versions, false)
		e.fpValid = true
	}
	return e.fp
}

// Facts renders every fact but the versions, in Fingerprint's form.
func (e *refEnv) Facts() string { return e.uf.fingerprint(e.versions, true) }

// unionFind is the congruence-closure core (§8 step 4): equivalence
// classes over terms, each optionally carrying a constant; plus
// disequalities and strict orderings between classes ("if x < y holds,
// then everything in x's equivalence class is smaller than everything
// in y's equivalence class").
type unionFind struct {
	parent map[string]string
	konst  map[string]*int64          // root -> known constant
	diseq  map[string]map[string]bool // root -> set of unequal roots
	less   map[string]map[string]bool // root -> roots strictly greater
	leq    map[string]map[string]bool // root -> roots greater-or-equal
}

func newUnionFind() *unionFind {
	return &unionFind{
		parent: map[string]string{},
		konst:  map[string]*int64{},
		diseq:  map[string]map[string]bool{},
		less:   map[string]map[string]bool{},
		leq:    map[string]map[string]bool{},
	}
}

func (u *unionFind) clone() *unionFind {
	out := newUnionFind()
	for k, v := range u.parent {
		out.parent[k] = v
	}
	for k, v := range u.konst {
		if v != nil {
			c := *v
			out.konst[k] = &c
		}
	}
	for k, m := range u.diseq {
		nm := make(map[string]bool, len(m))
		for k2 := range m {
			nm[k2] = true
		}
		out.diseq[k] = nm
	}
	for k, m := range u.less {
		nm := make(map[string]bool, len(m))
		for k2 := range m {
			nm[k2] = true
		}
		out.less[k] = nm
	}
	for k, m := range u.leq {
		nm := make(map[string]bool, len(m))
		for k2 := range m {
			nm[k2] = true
		}
		out.leq[k] = nm
	}
	return out
}

// find returns the class root, registering unseen terms. Constant
// terms ("$42") self-describe their value.
func (u *unionFind) find(t string) string {
	p, ok := u.parent[t]
	if !ok {
		u.parent[t] = t
		if strings.HasPrefix(t, "$") {
			if v, err := strconv.ParseInt(t[1:], 10, 64); err == nil {
				u.konst[t] = &v
			}
		}
		return t
	}
	if p == t {
		return t
	}
	root := u.find(p)
	u.parent[t] = root
	return root
}

func (u *unionFind) constOf(t string) (int64, bool) {
	if t == "" {
		return 0, false
	}
	r := u.find(t)
	if c := u.konst[r]; c != nil {
		return *c, true
	}
	return 0, false
}

// union merges the classes of a and b, propagating constants. It
// returns false on contradiction (two different constants, or a
// recorded disequality/ordering between the classes).
func (u *unionFind) union(a, b string) bool {
	ra, rb := u.find(a), u.find(b)
	if ra == rb {
		return true
	}
	if u.diseq[ra][rb] || u.less[ra][rb] || u.less[rb][ra] {
		return false
	}
	ca, cb := u.konst[ra], u.konst[rb]
	if ca != nil && cb != nil && *ca != *cb {
		return false
	}
	// Merge rb into ra.
	u.parent[rb] = ra
	if ca == nil && cb != nil {
		u.konst[ra] = cb
	}
	delete(u.konst, rb)
	// Rewire relations mentioning rb to ra.
	for _, rel := range []map[string]map[string]bool{u.diseq, u.less, u.leq} {
		if m := rel[rb]; m != nil {
			for other := range m {
				u.addRel(rel, ra, u.find(other))
			}
			delete(rel, rb)
		}
		for from, m := range rel {
			if m[rb] {
				delete(m, rb)
				m[ra] = true
				_ = from
			}
		}
	}
	return u.consistent(ra)
}

func (u *unionFind) addRel(rel map[string]map[string]bool, a, b string) {
	m := rel[a]
	if m == nil {
		m = map[string]bool{}
		rel[a] = m
	}
	m[b] = true
}

// consistent re-checks a class after merging: no self-disequality,
// no self-less, constants respect orderings out of and into the class.
func (u *unionFind) consistent(r string) bool {
	if u.diseq[r][r] || u.less[r][r] {
		return false
	}
	c := u.konst[r]
	if c == nil {
		return true
	}
	for other := range u.less[r] {
		ro := u.find(other)
		if co := u.konst[ro]; co != nil && !(*c < *co) {
			return false
		}
	}
	for other := range u.leq[r] {
		ro := u.find(other)
		if co := u.konst[ro]; co != nil && !(*c <= *co) {
			return false
		}
	}
	for other, m := range u.less {
		if co := u.konst[u.find(other)]; m[r] && co != nil && !(*co < *c) {
			return false
		}
	}
	for other, m := range u.leq {
		if co := u.konst[u.find(other)]; m[r] && co != nil && !(*co <= *c) {
			return false
		}
	}
	return true
}

// relate answers whether op(a, b) must hold, must not hold, or is
// unknown given the recorded facts.
func (u *unionFind) relate(op cc.TokKind, a, b string) Verdict {
	ra, rb := u.find(a), u.find(b)
	ca, cb := u.konst[ra], u.konst[rb]
	if ca != nil && cb != nil {
		v, ok := cc.Binop(op, *ca, *cb)
		if !ok {
			return Unknown
		}
		if v != 0 {
			return MustTrue
		}
		return MustFalse
	}
	same := ra == rb
	dis := u.diseq[ra][rb] || u.diseq[rb][ra]
	ltAB := u.lessHolds(ra, rb)
	ltBA := u.lessHolds(rb, ra)
	leAB := ltAB || u.leqHolds(ra, rb) || same
	leBA := ltBA || u.leqHolds(rb, ra) || same

	switch op {
	case cc.TokEq:
		if same {
			return MustTrue
		}
		if dis || ltAB || ltBA {
			return MustFalse
		}
	case cc.TokNe:
		if same {
			return MustFalse
		}
		if dis || ltAB || ltBA {
			return MustTrue
		}
	case cc.TokLt:
		if ltAB {
			return MustTrue
		}
		// b <= a (including equality) contradicts a < b.
		if same || ltBA || leBA {
			return MustFalse
		}
	case cc.TokGt:
		if ltBA {
			return MustTrue
		}
		if same || ltAB || leAB {
			return MustFalse
		}
	case cc.TokLe:
		if leAB || ltAB || same {
			return MustTrue
		}
		if ltBA {
			return MustFalse
		}
	case cc.TokGe:
		if leBA || ltBA || same {
			return MustTrue
		}
		if ltAB {
			return MustFalse
		}
	}
	return Unknown
}

// lessHolds reports whether a < b is derivable (directly or through
// one transitive hop; full transitive closure is maintained eagerly on
// assert, so direct lookup suffices).
func (u *unionFind) lessHolds(ra, rb string) bool { return u.less[ra][rb] }
func (u *unionFind) leqHolds(ra, rb string) bool  { return u.leq[ra][rb] }

// assert records op(a, b) as a fact; it returns false when this
// contradicts existing facts.
func (u *unionFind) assert(op cc.TokKind, a, b string) bool {
	// Reject if the negation is already established.
	switch u.relate(op, a, b) {
	case MustTrue:
		return true
	case MustFalse:
		return false
	}
	ra, rb := u.find(a), u.find(b)
	switch op {
	case cc.TokEq:
		return u.union(ra, rb)
	case cc.TokNe:
		u.addRel(u.diseq, ra, rb)
		u.addRel(u.diseq, rb, ra)
		return true
	case cc.TokLt:
		u.addLess(ra, rb)
		return u.consistent(ra) && u.consistent(rb)
	case cc.TokGt:
		u.addLess(rb, ra)
		return u.consistent(ra) && u.consistent(rb)
	case cc.TokLe:
		// Antisymmetry: b <= a already recorded makes a <= b an
		// equality (the class of a keeps its root).
		if u.leq[rb][ra] {
			return u.union(ra, rb)
		}
		u.addLeq(ra, rb)
		return u.consistent(ra) && u.consistent(rb)
	case cc.TokGe:
		if u.leq[ra][rb] {
			return u.union(rb, ra)
		}
		u.addLeq(rb, ra)
		return u.consistent(ra) && u.consistent(rb)
	}
	return true
}

// addLess records ra < rb and maintains transitive closure over both
// less and leq edges.
func (u *unionFind) addLess(ra, rb string) {
	u.addRel(u.less, ra, rb)
	u.addRel(u.diseq, ra, rb)
	u.addRel(u.diseq, rb, ra)
	// x <(=) ra < rb  =>  x < rb ; ra < rb <=(>) y => ra < y.
	for x, m := range u.less {
		if m[ra] {
			u.addRel(u.less, x, rb)
			u.addRel(u.diseq, x, rb)
			u.addRel(u.diseq, rb, x)
		}
	}
	for x, m := range u.leq {
		if m[ra] {
			u.addRel(u.less, x, rb)
			u.addRel(u.diseq, x, rb)
			u.addRel(u.diseq, rb, x)
		}
	}
	for y := range u.less[rb] {
		u.addRel(u.less, ra, y)
	}
	for y := range u.leq[rb] {
		u.addRel(u.less, ra, y)
	}
}

// addLeq records ra <= rb with transitive closure.
func (u *unionFind) addLeq(ra, rb string) {
	u.addRel(u.leq, ra, rb)
	for x, m := range u.less {
		if m[ra] {
			u.addRel(u.less, x, rb)
		}
	}
	for x, m := range u.leq {
		if m[ra] {
			u.addRel(u.leq, x, rb)
		}
	}
	for y := range u.less[rb] {
		u.addRel(u.less, ra, y)
	}
	for y := range u.leq[rb] {
		u.addRel(u.leq, ra, y)
	}
}

// fingerprint renders a canonical summary of the facts the path can
// still use (Env.canonical's rule): the classes holding a live term —
// one naming variables all at their current version — and the classes
// a relation ties to those, each with its constant and relations, and
// the live terms' links. Every other fact, and the versions, drop out;
// with all set, nothing does but the versions.
func (u *unionFind) fingerprint(versions map[string]int, all bool) string {
	live := func(t string) bool {
		if all {
			return true
		}
		vars := varRef.FindAllStringSubmatch(t, -1)
		for _, v := range vars {
			if strconv.Itoa(versions[v[1]]) != v[2] {
				return false
			}
		}
		return len(vars) > 0
	}
	keep := map[string]bool{}
	for t := range u.parent {
		if live(t) {
			keep[u.find(t)] = true
		}
	}
	for grown := true; grown; {
		grown = false
		for _, rel := range []map[string]map[string]bool{u.diseq, u.less, u.leq} {
			for a, m := range rel {
				for b := range m {
					if keep[a] != keep[b] {
						keep[a], keep[b], grown = true, true, true
					}
				}
			}
		}
	}
	var parts []string
	for t := range u.parent {
		r := u.find(t)
		if r != t && live(t) {
			parts = append(parts, t+"="+r)
		}
		if c := u.konst[r]; c != nil && !strings.HasPrefix(t, "$") && keep[r] && (t == r || live(t)) {
			parts = append(parts, t+"#"+strconv.FormatInt(*c, 10))
		}
	}
	for a, m := range u.diseq {
		for b := range m {
			if a < b && keep[a] {
				parts = append(parts, a+"!="+b)
			}
		}
	}
	for a, m := range u.less {
		for b := range m {
			if keep[a] {
				parts = append(parts, a+"<"+b)
			}
		}
	}
	for a, m := range u.leq {
		for b := range m {
			if keep[a] {
				parts = append(parts, a+"<="+b)
			}
		}
	}
	sort.Strings(parts)
	return strings.Join(parts, ";")
}

// varRef matches a variable at a version in a rendered term ("a#2").
var varRef = regexp.MustCompile(`([A-Za-z_][A-Za-z0-9_]*)#([0-9]+)`)
