package fpp

// Differential coverage for the flat Env: one byte-coded op stream
// drives the Env and the reference implementation (reference_test.go)
// side by side. They must agree on every verdict, on Contradicted, on
// every rendered term — and, over all environment states one stream
// produces, the new fingerprint ids must be equal exactly when the old
// fingerprint strings are. Each stream runs on three tables, as the
// engine's table is found: a new one, one another stream used and that
// was Reset (a retiring engine's next unit), and one still shared with
// another stream (a non-retiring engine's next function, whose ids are
// numbered after the earlier function's).

import (
	"math/rand"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/cc"
)

var (
	diffVars  = []string{"a", "b", "c", "d"}
	diffExprs = mustExprs(
		"a", "b", "c", "d", "0", "1", "5", "-3", "'x'",
		"a + 1", "a + b", "b - a", "a * b", "-a", "!a", "~b", "a++", "++a",
		"(long)a", "s.f", "p->f", "p->f.g", "buf[a]", "buf[1]", "*p", "&a",
		"f(a)", "a ? b : c", "a == b", "c < 5",
	)
	diffRels = []cc.TokKind{cc.TokEq, cc.TokNe, cc.TokLt, cc.TokGt, cc.TokLe, cc.TokGe}
)

func mustExprs(srcs ...string) []cc.Expr {
	out := make([]cc.Expr, len(srcs))
	for i, s := range srcs {
		e, err := cc.ParseExprString(s)
		if err != nil {
			panic(s + ": " + err.Error())
		}
		out[i] = e
	}
	return out
}

// envPair is one environment in both implementations.
type envPair struct {
	got *Env
	ref *refEnv
}

// render is a term's string form, "" for noTerm as in the reference.
func (e *Env) render(t term) string {
	if t == noTerm {
		return ""
	}
	return e.tab.str(t)
}

// oldFingerprint renders the environment's facts in the reference
// implementation's fingerprint format, so the two fact sets can be
// compared directly and not only through which states they tell apart.
func (e *Env) oldFingerprint() string {
	str := func(t int32) string { return e.tab.str(term(t)) }
	var parts []string
	pinned := func(t term) {
		if c, ok := e.termConst(t); ok && !strings.HasPrefix(e.tab.str(t), "$") {
			parts = append(parts, e.tab.str(t)+"#"+strconv.FormatInt(c, 10))
		}
	}
	roots := map[int32]bool{}
	for _, f := range e.facts {
		switch f.kind {
		case factLink:
			parts = append(parts, str(f.a)+"="+str(f.b))
			pinned(term(f.a))
			roots[f.b] = true
		case factConst:
			roots[f.a] = true
		case factNe:
			a, b := str(f.a), str(f.b)
			if a > b {
				a, b = b, a
			}
			if a != b {
				parts = append(parts, a+"!="+b)
			}
		case factLt:
			parts = append(parts, str(f.a)+"<"+str(f.b))
		case factLe:
			parts = append(parts, str(f.a)+"<="+str(f.b))
		}
	}
	for r := range roots {
		pinned(term(r))
	}
	sort.Strings(parts)
	return strings.Join(parts, ";")
}

// fpPair is one observed state: the new id and the old string.
type fpPair struct {
	id  uint32
	str string
}

const (
	diffMaxEnvs = 12
	diffSimple  = 9 // the leading variables and constants of diffExprs
)

// runOps interprets data as a program over a pool of environments
// that share tab, reports the first disagreement and returns the
// fingerprint observed after each step.
func runOps(t testing.TB, tab *Table, data []byte) []fpPair {
	envs := []envPair{{tab.NewEnv(), newRefEnv()}}
	var seen []fpPair
	// warm is the recycled frame every copy passes through, as the
	// engine's copies do: whatever it held before must not show.
	var warm Env
	pos := 0
	next := func() int {
		if pos >= len(data) {
			return 0
		}
		b := data[pos]
		pos++
		return int(b)
	}
	// pick favours the plain variables and constants at the head of the
	// pool, so that relations chain and classes merge.
	pick := func() cc.Expr {
		b := next()
		if b%4 != 0 {
			return diffExprs[b/4%diffSimple]
		}
		return diffExprs[b/4%len(diffExprs)]
	}
	// cond builds a condition: a relation between two pool expressions,
	// optionally negated or joined to a second one, or a bare pool
	// expression, or an assignment.
	var cond func(depth int) cc.Expr
	cond = func(depth int) cc.Expr {
		switch k := next() % 8; {
		case k == 0:
			return pick()
		case k == 1 && depth < 2:
			return &cc.UnaryExpr{Op: cc.TokNot, X: cond(depth + 1)}
		case k == 2 && depth < 2:
			op := cc.TokAndAnd
			if next()%2 == 1 {
				op = cc.TokOrOr
			}
			return &cc.BinaryExpr{Op: op, X: cond(depth + 1), Y: cond(depth + 1)}
		case k == 3:
			return &cc.AssignExpr{Op: cc.TokAssign, LHS: &cc.Ident{Name: diffVars[next()%len(diffVars)]}, RHS: pick()}
		}
		return &cc.BinaryExpr{Op: diffRels[next()%len(diffRels)], X: pick(), Y: pick()}
	}

	for step := 0; pos < len(data); step++ {
		p := envs[next()%len(envs)]
		switch op := next() % 8; op {
		case 0:
			lhs := &cc.Ident{Name: diffVars[next()%len(diffVars)]}
			rhs := pick()
			p.got.Assign(lhs, rhs)
			p.ref.Assign(lhs, rhs)
		case 1:
			v := diffVars[next()%len(diffVars)]
			p.got.Havoc(v)
			p.ref.Havoc(v)
		case 2:
			c, truth := cond(0), next()%2 == 1
			p.got.AssumeCond(c, truth)
			p.ref.AssumeCond(c, truth)
		case 3, 4:
			tag, val := pick(), int64(next()%7-2)
			if op == 3 {
				p.got.AssumeCase(tag, val)
				p.ref.AssumeCase(tag, val)
			} else {
				p.got.AssumeNotCase(tag, val)
				p.ref.AssumeNotCase(tag, val)
			}
		case 5:
			c := cond(0)
			if g, w := p.got.EvalCond(c), p.ref.EvalCond(c); g != w {
				t.Fatalf("step %d: EvalCond(%s) = %v, reference %v", step, cc.ExprString(c), g, w)
			}
		case 6:
			if len(envs) < diffMaxEnvs {
				warm.CopyFrom(p.got)
				got := new(Env)
				got.CopyFrom(&warm)
				envs = append(envs, envPair{got, p.ref.Clone()})
			}
		case 7:
			x := pick()
			id, w := p.got.term(x), p.ref.term(x)
			if g := p.got.render(id); g != w {
				t.Fatalf("step %d: term(%s) = %q, reference %q", step, cc.ExprString(x), g, w)
			}
			if id == noTerm {
				break
			}
			if gc, wc := p.got.render(p.got.find(id)), p.ref.uf.find(w); gc != wc {
				t.Fatalf("step %d: class of %q = %q, reference %q", step, w, gc, wc)
			}
			gv, gok := p.got.termConst(id)
			wv, wok := p.ref.uf.constOf(w)
			if gv != wv || gok != wok {
				t.Fatalf("step %d: constant of %q = %d,%v, reference %d,%v", step, w, gv, gok, wv, wok)
			}
		}
		if g, w := p.got.Contradicted(), p.ref.Contradicted(); g != w {
			t.Fatalf("step %d: Contradicted = %v, reference %v", step, g, w)
		}
		if g, w := p.got.oldFingerprint(), p.ref.Facts(); g != w {
			t.Fatalf("step %d: facts %q, reference %q", step, g, w)
		}
		seen = append(seen, fpPair{p.got.Fingerprint(), p.ref.Fingerprint()})
	}

	for _, x := range seen {
		if (x.id == 0) != (x.str == "") {
			t.Fatalf("fingerprint id %d for reference %q: 0 must mean no facts", x.id, x.str)
		}
	}
	for i, x := range seen {
		for _, y := range seen[:i] {
			if (x.id == y.id) != (x.str == y.str) {
				t.Fatalf("fingerprint ids %d, %d for reference fingerprints %q, %q", x.id, y.id, x.str, y.str)
			}
		}
	}
	return seen
}

// runOpsOnTables runs data on a new table, on a table other ran on and
// that was then Reset, and on a table other ran on and that is shared
// still. A Reset table must hand out exactly the new table's ids.
func runOpsOnTables(t testing.TB, other, data []byte) {
	fresh := runOps(t, NewTable(), data)
	reused := NewTable()
	runOps(t, reused, other)
	reused.Reset()
	if terms, fps := reused.Len(); terms != 0 || fps != 0 {
		t.Fatalf("Reset left %d terms and %d fingerprints", terms, fps)
	}
	for i, x := range runOps(t, reused, data) {
		if x != fresh[i] {
			t.Fatalf("step %d: fingerprint id %d on a Reset table, %d on a new one", i, x.id, fresh[i].id)
		}
	}
	shared := NewTable()
	runOps(t, shared, other)
	runOps(t, shared, data)
}

func TestEnvMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	var prev []byte
	for i := 0; i < 400; i++ {
		data := make([]byte, 40+rng.Intn(400))
		rng.Read(data)
		runOpsOnTables(t, prev, data)
		prev = data
	}
}

func FuzzEnvOps(f *testing.F) {
	// Seeds: testdata/fuzz/FuzzEnvOps.
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 2048 {
			data = data[:2048]
		}
		// The other stream is this one backwards: the same variables
		// and constants, met in another order.
		other := slices.Clone(data)
		slices.Reverse(other)
		runOpsOnTables(t, other, data)
	})
}
