package fpp

import "repro/internal/cc"

// The congruence-closure core (§8 step 4) over one flat fact list:
// equivalence classes of terms, each optionally pinned to a constant,
// plus disequalities and orderings between class roots ("if x < y
// holds, then everything in x's equivalence class is smaller than
// everything in y's equivalence class"). A path holds a handful of
// facts, so every operation is a scan; a term no fact mentions is the
// root of its own singleton class.

type factKind int32

const (
	factVer   factKind = iota // variable a (name id) is at version b
	factLink                  // term a belongs to the class rooted at b
	factConst                 // the class rooted at a is pinned to constant term b
	factNe                    // roots a != b, stored once with a <= b
	factLt                    // roots a < b
	factLe                    // roots a <= b
)

// fact is one entry of an environment. Relation facts (factNe and up)
// only ever mention current class roots: union rewrites them.
type fact struct {
	kind factKind
	a, b int32
}

func (e *Env) has(k factKind, a, b term) bool {
	return contains(e.facts, fact{k, int32(a), int32(b)})
}

func (e *Env) add(k factKind, a, b term) {
	if !e.has(k, a, b) {
		e.facts = append(e.facts, fact{k, int32(a), int32(b)})
		e.fpValid = false
	}
}

func (e *Env) ne(a, b term) bool {
	if a > b {
		a, b = b, a
	}
	return e.has(factNe, a, b)
}

func (e *Env) addNe(a, b term) {
	if a > b {
		a, b = b, a
	}
	e.add(factNe, a, b)
}

// version is the variable's current version; bump starts the next one.
func (e *Env) version(name int32) int32 {
	for _, f := range e.facts {
		if f.kind == factVer && f.a == name {
			return f.b
		}
	}
	return 0
}

func (e *Env) bump(name int32) {
	for i := range e.facts {
		if f := &e.facts[i]; f.kind == factVer && f.a == name {
			f.b++
			return
		}
	}
	e.facts = append(e.facts, fact{factVer, name, 1})
}

// find returns the root of the term's class.
func (e *Env) find(t term) term {
	for _, f := range e.facts {
		if f.kind == factLink && f.a == int32(t) {
			return term(f.b)
		}
	}
	return t
}

// rootConst reports the constant a class is pinned to: the root's own
// value when it is a constant term, else the class's factConst.
func (e *Env) rootConst(r term) (int64, bool) {
	if v, ok := e.tab.constVal(r); ok {
		return v, true
	}
	for _, f := range e.facts {
		if f.kind == factConst && f.a == int32(r) {
			return e.tab.constVal(term(f.b))
		}
	}
	return 0, false
}

func (e *Env) termConst(t term) (int64, bool) {
	if t == noTerm {
		return 0, false
	}
	return e.rootConst(e.find(t))
}

// union merges b's class into a's (a's root stays the root),
// propagating constants. It returns false on contradiction: two
// different constants, or a recorded disequality or strict ordering
// between the classes.
func (e *Env) union(a, b term) bool {
	ra, rb := e.find(a), e.find(b)
	if ra == rb {
		return true
	}
	if e.ne(ra, rb) || e.has(factLt, ra, rb) || e.has(factLt, rb, ra) {
		return false
	}
	ca, oka := e.rootConst(ra)
	cb, okb := e.rootConst(rb)
	if oka && okb && ca != cb {
		return false
	}
	// Rewrite every mention of rb to ra, in place: rb's members and
	// its constant move over, relations are rewired and deduplicated.
	e.fpValid = false
	from, to := int32(rb), int32(ra)
	out := e.facts[:0]
	for _, f := range e.facts {
		switch f.kind {
		case factLink:
			if f.b == from {
				f.b = to
			}
		case factConst:
			if f.a == from {
				if oka {
					continue
				}
				f.a = to
			}
		case factNe, factLt, factLe:
			if f.a == from {
				f.a = to
			}
			if f.b == from {
				f.b = to
			}
			if f.kind == factNe && f.a > f.b {
				f.a, f.b = f.b, f.a
			}
			if (f.a == to || f.b == to) && contains(out, f) {
				continue
			}
		}
		out = append(out, f)
	}
	out = append(out, fact{factLink, from, to})
	if _, own := e.tab.constVal(rb); own && !oka {
		out = append(out, fact{factConst, to, from})
	}
	e.facts = out
	return e.consistent(ra)
}

func contains(facts []fact, want fact) bool {
	for _, f := range facts {
		if f == want {
			return true
		}
	}
	return false
}

// consistent re-checks a class after a change: no self-disequality,
// no self-less, its constant respects every ordering that touches it,
// from it or into it. A new ordering only ever touches the two classes
// assert or union re-checks, so this covers every fact they add.
func (e *Env) consistent(r term) bool {
	if e.has(factNe, r, r) || e.has(factLt, r, r) {
		return false
	}
	c, ok := e.rootConst(r)
	if !ok {
		return true
	}
	for _, f := range e.facts {
		if f.kind != factLt && f.kind != factLe {
			continue
		}
		var lo, hi int64
		var ok bool
		switch int32(r) {
		case f.a:
			lo = c
			hi, ok = e.rootConst(term(f.b))
		case f.b:
			lo, ok = e.rootConst(term(f.a))
			hi = c
		}
		if ok && (lo > hi || (lo == hi && f.kind == factLt)) {
			return false
		}
	}
	return true
}

// forward rewrites a > b and a >= b as b < a and b <= a: the closure
// stores and answers only the two forward orderings.
func forward(op cc.TokKind, a, b term) (cc.TokKind, term, term) {
	switch op {
	case cc.TokGt:
		return cc.TokLt, b, a
	case cc.TokGe:
		return cc.TokLe, b, a
	}
	return op, a, b
}

// relate answers whether op(a, b) must hold, must not hold, or is
// unknown given the recorded facts.
func (e *Env) relate(op cc.TokKind, a, b term) Verdict {
	op, a, b = forward(op, a, b)
	ra, rb := e.find(a), e.find(b)
	ca, oka := e.rootConst(ra)
	cb, okb := e.rootConst(rb)
	if oka && okb {
		v, ok := applyBinop(op, ca, cb)
		if !ok {
			return Unknown
		}
		if v != 0 {
			return MustTrue
		}
		return MustFalse
	}
	// The transitive closure is maintained on assert, so direct
	// lookups suffice.
	same := ra == rb
	ltAB := e.has(factLt, ra, rb)
	ltBA := e.has(factLt, rb, ra)
	differ := ltAB || ltBA || e.ne(ra, rb)
	var yes, no bool
	switch op {
	case cc.TokEq:
		yes, no = same, differ
	case cc.TokNe:
		yes, no = differ && !same, same
	case cc.TokLt:
		// b <= a (including equality) contradicts a < b.
		yes, no = ltAB, ltBA || same || e.has(factLe, rb, ra)
	case cc.TokLe:
		yes, no = ltAB || same || e.has(factLe, ra, rb), ltBA
	}
	switch {
	case yes:
		return MustTrue
	case no:
		return MustFalse
	}
	return Unknown
}

// assert records op(a, b) as a fact; it returns false when this
// contradicts existing facts.
func (e *Env) assert(op cc.TokKind, a, b term) bool {
	op, a, b = forward(op, a, b)
	switch e.relate(op, a, b) {
	case MustTrue:
		return true
	case MustFalse:
		return false
	}
	ra, rb := e.find(a), e.find(b)
	switch op {
	case cc.TokEq:
		return e.union(ra, rb)
	case cc.TokNe:
		e.addNe(ra, rb)
		return true
	case cc.TokLt:
		e.addLess(ra, rb)
	case cc.TokLe:
		// Antisymmetry: b <= a already recorded makes a <= b an
		// equality.
		if e.has(factLe, rb, ra) {
			return e.union(ra, rb)
		}
		e.addLeq(ra, rb)
	}
	return e.consistent(ra) && e.consistent(rb)
}

// addLess records lo < hi and extends the closure one hop each way:
// x <(=) lo gives x < hi, and hi <(=) y gives lo < y. Each loop reads
// the facts as they stood when it started (range fixes the length).
func (e *Env) addLess(lo, hi term) {
	e.add(factLt, lo, hi)
	e.addNe(lo, hi)
	for _, k := range [...]factKind{factLt, factLe} {
		for _, f := range e.facts {
			if f.kind == k && f.b == int32(lo) {
				e.add(factLt, term(f.a), hi)
				e.addNe(term(f.a), hi)
			}
		}
	}
	for _, k := range [...]factKind{factLt, factLe} {
		for _, f := range e.facts {
			if f.kind == k && f.a == int32(hi) {
				e.add(factLt, lo, term(f.b))
			}
		}
	}
}

// addLeq records lo <= hi with the same one-hop closure; a strict hop
// on either side keeps the result strict.
func (e *Env) addLeq(lo, hi term) {
	e.add(factLe, lo, hi)
	for _, k := range [...]factKind{factLt, factLe} {
		for _, f := range e.facts {
			if f.kind == k && f.b == int32(lo) {
				e.add(k, term(f.a), hi)
			}
		}
	}
	for _, k := range [...]factKind{factLt, factLe} {
		for _, f := range e.facts {
			if f.kind == k && f.a == int32(hi) {
				e.add(k, lo, term(f.b))
			}
		}
	}
}

// canonical appends the facts a fingerprint covers — everything but
// the variable versions — to buf in sorted order.
func (e *Env) canonical(buf []fact) []fact {
	for _, f := range e.facts {
		if f.kind == factVer {
			continue
		}
		i := len(buf)
		buf = append(buf, f)
		for ; i > 0 && less(f, buf[i-1]); i-- {
			buf[i] = buf[i-1]
		}
		buf[i] = f
	}
	return buf
}

func less(x, y fact) bool {
	if x.kind != y.kind {
		return x.kind < y.kind
	}
	if x.a != y.a {
		return x.a < y.a
	}
	return x.b < y.b
}
