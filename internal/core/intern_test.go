package core

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/checkers"
	"repro/internal/workload"
)

func newInterner() *interner {
	in := &interner{}
	in.init()
	return in
}

// oracleKey renders a tuple the way the string-keyed interner identified
// it: two tuples are one tuple iff their keys are equal, and an interned
// id renders to its tuple's key. The interner numbers symbols instead
// and renders only on demand; this is the reference it is held to.
func oracleKey(td TupleData) string {
	if td.Obj == "" {
		return "(" + td.G + ",<>)"
	}
	val := td.Val
	if td.Data != 0 {
		val = fmt.Sprintf("%s/%d", val, td.Data)
	}
	return fmt.Sprintf("(%s,%s:%s->%s)", td.G, td.Var, td.Obj, val)
}

// TestInternerMatchesKey draws seeded tuples over the bundled checkers'
// symbols, unknown and stop, nonzero data, object keys with ->, . and *,
// and placeholders that carry a variable and a value, interns them in
// one engine's interner (which numbered only the free checker's
// symbols) and checks, over all pairs, that two ids are equal exactly
// when the oracle keys are, and that every id renders its oracle key.
func TestInternerMatchesKey(t *testing.T) {
	suite := bundledSuite(t)
	var gs, vars, vals []string
	for _, c := range suite {
		gs = append(gs, c.InitialGlobal())
		gs = append(gs, c.GlobalStates...)
		for v, states := range c.VarStates {
			vars = append(vars, v)
			vals = append(vals, states...)
		}
	}
	vals = append(vals, UnknownVal, StopVal)
	objs := []string{"p", "q", "p->next", "s.f", "*p", "*q->lock", "dev->s.lock", "a[i]", "&m"}
	p := buildProg(t, map[string]string{"k.c": "int f(int x) { return x; }\n"})

	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		pick := func(xs []string) string { return xs[rng.Intn(len(xs))] }
		in := &NewEngine(p, mustChecker(t, checkers.Free), DefaultOptions()).intern
		tds := make([]TupleData, 300)
		ids := make([]tid, len(tds))
		for i := range tds {
			td := TupleData{G: pick(gs), Var: pick(vars), Obj: pick(objs), Val: pick(vals)}
			if rng.Intn(3) == 0 {
				td.Data = int64(rng.Intn(5) - 2)
			}
			if rng.Intn(5) == 0 {
				td.Obj = "" // a placeholder, its variable, value and data left in
			}
			tds[i], ids[i] = td, in.id(in.tupleOf(td))
		}
		for i := range tds {
			if got, want := in.key(ids[i]), oracleKey(tds[i]); got != want {
				t.Fatalf("seed %d: %+v renders %q, want %q", seed, tds[i], got, want)
			}
			for j := i + 1; j < len(tds); j++ {
				if same, want := ids[i] == ids[j], oracleKey(tds[i]) == oracleKey(tds[j]); same != want {
					t.Fatalf("seed %d: %+v and %+v: same id %v, same key %v", seed, tds[i], tds[j], same, want)
				}
			}
		}
	}
}

// TestTupleKeyRendering pins the rendering of each tuple shape.
func TestTupleKeyRendering(t *testing.T) {
	in := newInterner()
	start := in.vals.id("start")
	inst := &Instance{v: in.vars.id("v"), obj: in.objs.id("p"), val: in.vals.id("freed")}
	for _, c := range []struct {
		t    Tuple
		want string
	}{
		{instTuple(start, inst), "(start,v:p->freed)"},
		{placeholderTuple(start), "(start,<>)"},
		{unknownTuple(start, inst.v, inst.obj), "(start,v:p->unknown)"},
	} {
		if got := in.key(in.id(c.t)); got != c.want {
			t.Errorf("key = %q, want %q", got, c.want)
		}
	}
	inst.Data = 2
	if got := in.key(in.id(instTuple(start, inst))); got != "(start,v:p->freed/2)" {
		t.Errorf("key with data = %q", got)
	}
}

// TestInternerStableAcrossRuns: a long-lived engine (the daemon's
// resident-tree model) re-runs over the same program many times. The
// interner holds one entry per distinct tuple and per distinct symbol,
// so after the first run neither its map nor its rendered table may
// grow.
func TestInternerStableAcrossRuns(t *testing.T) {
	srcs, _ := workload.MixedTree(3, 12, 7)
	p := buildProg(t, srcs)
	free := mustChecker(t, checkers.Free)
	en := NewEngine(p, free, DefaultOptions())

	size := func() [6]int {
		in := &en.intern
		rendered := 0
		for _, s := range in.strs {
			if s != "" {
				rendered++
			}
		}
		return [6]int{len(in.ids), len(in.tups), len(in.strs), rendered, len(in.objs.strs), len(in.vals.strs)}
	}
	en.RunRootsContext(context.Background(), p.Roots)
	first := size()
	if first[0] == 0 || first[3] == 0 {
		t.Fatalf("first run interned %d tuples and rendered %d; workload too small to test growth", first[0], first[3])
	}
	for i := 0; i < 5; i++ {
		en.RunRootsContext(context.Background(), p.Roots)
		if got := size(); got != first {
			t.Fatalf("run %d: ids, tups, strs, rendered, objs, vals = %v, after the first run %v; a resident tree must not grow them",
				i+2, got, first)
		}
	}
}

// BenchmarkInternHit is the hot-path probe: the id of an instance tuple
// that is already interned.
func BenchmarkInternHit(b *testing.B) {
	in := newInterner()
	inst := &Instance{v: in.vars.id("v"), obj: in.objs.id("dev->lock"), val: in.vals.id("locked"), Data: 1}
	tup := instTuple(in.vals.id("start"), inst)
	want := in.id(tup)
	if n := testing.AllocsPerRun(100, func() { in.id(tup) }); n != 0 {
		b.Fatalf("an interned tuple's id allocates %.0f objects", n)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if in.id(tup) != want {
			b.Fatal("id moved")
		}
	}
}
