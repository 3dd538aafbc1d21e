package feas

// The interval layer. The union-find replay catches equality- and
// constant-rooted contradictions; what it cannot see is arithmetic
// between distinct constant bounds: (n > 5, n < 3) records two
// ordering edges against different constant classes and stays
// "consistent", and (n >= 10, n == 5) hides the ordering on an edge
// incoming to n's class, which union never re-checks. This pass
// resolves every extracted constraint against the replay's *final*
// equivalence classes (classes only grow along a path, so a version
// term means the same concrete value at every step that mentions it),
// seeds each class with its pinned constant as a point interval, and
// tightens bounds to a fixpoint. An empty interval proves the witness
// infeasible.
//
// The model is conservative over mathematical integers: when a
// strict-bound adjustment would overflow int64, it falls back to the
// non-strict bound (weaker, still sound), and single-point
// disequality shaving is skipped at the int64 extremes.

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/cc"
	"repro/internal/fpp"
)

// interval is a (possibly half-open) range of int64 values.
type interval struct {
	lo, hi       int64
	hasLo, hasHi bool
}

func (iv *interval) empty() bool { return iv.hasLo && iv.hasHi && iv.lo > iv.hi }
func (iv *interval) point() (int64, bool) {
	if iv.hasLo && iv.hasHi && iv.lo == iv.hi {
		return iv.lo, true
	}
	return 0, false
}

func (iv *interval) tightenLo(v int64) bool {
	if !iv.hasLo || v > iv.lo {
		iv.lo, iv.hasLo = v, true
		return true
	}
	return false
}

func (iv *interval) tightenHi(v int64) bool {
	if !iv.hasHi || v < iv.hi {
		iv.hi, iv.hasHi = v, true
		return true
	}
	return false
}

func (iv *interval) String() string {
	lo, hi := "-inf", "+inf"
	if iv.hasLo {
		lo = fmt.Sprintf("%d", iv.lo)
	}
	if iv.hasHi {
		hi = fmt.Sprintf("%d", iv.hi)
	}
	return "[" + lo + ", " + hi + "]"
}

// edge is a residual variable-to-variable ordering: a < b (strict) or
// a <= b, between class roots.
type edge struct {
	a, b   string
	strict bool
}

// exclusion is a residual disequality against a constant.
type exclusion struct {
	root string
	val  int64
}

// checkIntervals reports whether the constraint set contradicts
// (contra), whether bound propagation reached a fixpoint within the
// iteration budget (converged — required for a confirmed verdict),
// and a human-readable reason for either failure. The budget is
// 2*len(cons)+8 propagation sweeps.
func checkIntervals(env *fpp.Env, cons []constraint) (contra, converged bool, why string) {
	ivs := map[string]*interval{}
	var edges []edge
	var excls []exclusion
	var diseqVars [][2]string

	// iv returns root's interval, seeding it from the class's pinned
	// constant on first use.
	iv := func(root string) *interval {
		v := ivs[root]
		if v == nil {
			v = &interval{}
			if c, ok := env.TermConst(root); ok {
				v.lo, v.hi, v.hasLo, v.hasHi = c, c, true, true
			}
			ivs[root] = v
		}
		return v
	}

	resolve := func(t string) (root string, c int64, isConst bool) {
		root = env.CanonTerm(t)
		c, isConst = env.TermConst(t)
		return
	}

	for _, cn := range cons {
		lr, lv, lc := resolve(cn.l)
		rr, rv, rc := resolve(cn.r)
		if lc && rc {
			if !relHolds(cn.op, lv, rv) {
				return true, true, fmt.Sprintf("path pins %s to %d and %s to %d, violating %s at %s",
					pretty(cn.l), lv, pretty(cn.r), rv, cn.op, cn.pos)
			}
			continue
		}
		switch cn.op {
		case cc.TokEq:
			// The union-find already merged var-var equalities; a
			// const side becomes a point interval.
			if lc {
				iv(rr).tightenLo(lv)
				iv(rr).tightenHi(lv)
			} else if rc {
				iv(lr).tightenLo(rv)
				iv(lr).tightenHi(rv)
			}
		case cc.TokNe:
			switch {
			case lc:
				excls = append(excls, exclusion{rr, lv})
			case rc:
				excls = append(excls, exclusion{lr, rv})
			case lr == rr:
				return true, true, fmt.Sprintf("path requires %s != itself at %s", pretty(cn.l), cn.pos)
			default:
				diseqVars = append(diseqVars, [2]string{lr, rr})
			}
		case cc.TokLt, cc.TokLe, cc.TokGt, cc.TokGe:
			// Normalize to a <(=) b.
			a, av, ac, b, bv, bc := lr, lv, lc, rr, rv, rc
			strict := cn.op == cc.TokLt || cn.op == cc.TokGt
			if cn.op == cc.TokGt || cn.op == cc.TokGe {
				a, av, ac, b, bv, bc = rr, rv, rc, lr, lv, lc
			}
			switch {
			case ac: // const < var: raise b's lower bound
				lo := av
				if strict {
					if av == math.MaxInt64 {
						strict = false // fall back to non-strict
					} else {
						lo = av + 1
					}
				}
				iv(b).tightenLo(lo)
			case bc: // var < const: lower a's upper bound
				hi := bv
				if strict {
					if bv == math.MinInt64 {
						strict = false
					} else {
						hi = bv - 1
					}
				}
				iv(a).tightenHi(hi)
			case a == b && strict:
				return true, true, fmt.Sprintf("path requires %s < itself at %s", pretty(cn.l), cn.pos)
			case a != b:
				edges = append(edges, edge{a, b, strict})
				iv(a) // materialize both ends so empties surface
				iv(b)
			}
		}
	}

	maxIters := 2*len(cons) + 8
	converged = false
	for it := 0; it < maxIters; it++ {
		changed := false
		for _, e := range edges {
			a, b := ivs[e.a], ivs[e.b]
			if a.hasLo {
				lo := a.lo
				if e.strict && lo != math.MaxInt64 {
					lo++
				}
				if b.tightenLo(lo) {
					changed = true
				}
			}
			if b.hasHi {
				hi := b.hi
				if e.strict && hi != math.MinInt64 {
					hi--
				}
				if a.tightenHi(hi) {
					changed = true
				}
			}
		}
		for _, ex := range excls {
			v := ivs[ex.root]
			if v == nil {
				continue // unbounded: excluding one point proves nothing
			}
			if p, ok := v.point(); ok && p == ex.val {
				return true, true, fmt.Sprintf("path pins %s to %d but also requires it != %d",
					pretty(ex.root), p, ex.val)
			}
			if v.hasLo && v.lo == ex.val && ex.val != math.MaxInt64 {
				v.lo++
				changed = true
			}
			if v.hasHi && v.hi == ex.val && ex.val != math.MinInt64 {
				v.hi--
				changed = true
			}
		}
		if c, w := findEmpty(ivs); c {
			return true, true, w
		}
		if !changed {
			converged = true
			break
		}
	}
	if !converged {
		return false, false, fmt.Sprintf("interval propagation hit the iteration cap (%d sweeps)", maxIters)
	}
	for _, dq := range diseqVars {
		a, b := ivs[dq[0]], ivs[dq[1]]
		if a == nil || b == nil {
			continue
		}
		pa, oka := a.point()
		pb, okb := b.point()
		if oka && okb && pa == pb {
			return true, true, fmt.Sprintf("path pins %s and %s both to %d but requires them unequal",
				pretty(dq[0]), pretty(dq[1]), pa)
		}
	}
	return false, true, ""
}

// findEmpty scans for an empty interval, visiting roots in sorted
// order so the reported witness is deterministic.
func findEmpty(ivs map[string]*interval) (bool, string) {
	var roots []string
	for r, v := range ivs {
		if v.empty() {
			roots = append(roots, r)
		}
	}
	if len(roots) == 0 {
		return false, ""
	}
	sort.Strings(roots)
	r := roots[0]
	return true, fmt.Sprintf("branch constraints leave %s an empty range %s", pretty(r), ivs[r])
}

// relHolds evaluates a relation between two known constants.
func relHolds(op cc.TokKind, l, r int64) bool {
	switch op {
	case cc.TokEq:
		return l == r
	case cc.TokNe:
		return l != r
	case cc.TokLt:
		return l < r
	case cc.TokGt:
		return l > r
	case cc.TokLe:
		return l <= r
	case cc.TokGe:
		return l >= r
	}
	return true
}

// pretty strips "#version" subscripts from a term for human-readable
// explanations ("n#2" -> "n").
func pretty(t string) string {
	var sb strings.Builder
	for i := 0; i < len(t); i++ {
		if t[i] == '#' {
			j := i + 1
			for j < len(t) && t[j] >= '0' && t[j] <= '9' {
				j++
			}
			if j > i+1 {
				i = j - 1
				continue
			}
		}
		sb.WriteByte(t[i])
	}
	return sb.String()
}
