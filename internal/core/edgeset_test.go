package core

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// edgeModel is the naive edge set the grouped slice must behave like:
// edges bucketed by the start tuple's rendered key, deduplicated by the
// rendered (from, to) pair, all() in ascending key order with insertion
// order inside a bucket.
type edgeModel struct {
	in      *interner
	buckets map[string][]edge
	n       int
}

func (m *edgeModel) add(e edge) bool {
	k := m.in.key(e.from)
	for _, prev := range m.buckets[k] {
		if m.in.key(prev.to) == m.in.key(e.to) {
			return false
		}
	}
	m.buckets[k] = append(m.buckets[k], e)
	m.n++
	return true
}

func (m *edgeModel) all() []edge {
	keys := make([]string, 0, len(m.buckets))
	for k := range m.buckets {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var out []edge
	for _, k := range keys {
		out = append(out, m.buckets[k]...)
	}
	return out
}

func renderEdges(in *interner, edges []edge) string {
	s := ""
	for _, e := range edges {
		s += in.key(e.from) + " --> " + in.key(e.to) + "\n"
	}
	return s
}

// TestEdgeSetMatchesModel drives an edgeSet and the model with the
// same seeded adds and compares every observable after each one:
// add's verdict, len, from/hasFrom of a probed tuple, and all() with
// its order.
func TestEdgeSetMatchesModel(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		in := newInterner()
		fi, set := &funcInfo{in: in}, &edgeSet{}
		model := &edgeModel{in: in, buckets: map[string][]edge{}}
		// A small tuple universe, so starts repeat, pairs collide and
		// new groups land before, between and after the existing ones.
		draw := func() TupleData {
			g := []string{"start", "locked", "a"}[rng.Intn(3)]
			if rng.Intn(4) == 0 {
				return TupleData{G: g}
			}
			return TupleData{G: g, Var: "v", Obj: fmt.Sprintf("p%d", rng.Intn(5)),
				Val: []string{"freed", UnknownVal, StopVal}[rng.Intn(3)], Data: int64(rng.Intn(2))}
		}
		for i := 0; i < 120; i++ {
			e := in.edge(in.tupleOf(draw()), in.tupleOf(draw()))
			if got, want := set.add(fi, e), model.add(e); got != want {
				t.Fatalf("seed %d step %d: add = %v, model %v", seed, i, got, want)
			}
			if set.len() != model.n {
				t.Fatalf("seed %d step %d: len = %d, model %d", seed, i, set.len(), model.n)
			}
			td := draw()
			probe, key := in.tupleOf(td), oracleKey(td)
			want := model.buckets[key]
			if got := set.from(in, probe); renderEdges(in, got) != renderEdges(in, want) {
				t.Fatalf("seed %d step %d: from(%s) =\n%swant\n%s", seed, i, key, renderEdges(in, got), renderEdges(in, want))
			}
			if set.hasFrom(in, probe) != (len(want) > 0) {
				t.Fatalf("seed %d step %d: hasFrom(%s) = %v", seed, i, key, set.hasFrom(in, probe))
			}
			if got, want := renderEdges(in, set.all()), renderEdges(in, model.all()); got != want {
				t.Fatalf("seed %d step %d: all() =\n%swant\n%s", seed, i, got, want)
			}
		}
	}
}

// An edge rebuilds exactly the tuples it was made from, identity from
// the interner and the rest from the edge.
func TestEdgeRoundTrip(t *testing.T) {
	in := newInterner()
	inst := &Instance{v: in.vars.id("v"), obj: in.objs.id("p"), val: in.vals.id("freed"), Data: 2}
	from := unknownTuple(in.vals.id("start"), inst.v, inst.obj)
	to := instTuple(in.vals.id("locked"), inst)
	e := in.edge(from, to)
	if got := in.fromTuple(e); got != from {
		t.Errorf("fromTuple = %+v, want %+v", got, from)
	}
	if got := in.toTuple(e); got != to {
		t.Errorf("toTuple = %+v, want %+v", got, to)
	}
}

func BenchmarkEdgeSetAdd(b *testing.B) {
	in := newInterner()
	var edges []edge
	for f := 0; f < 6; f++ {
		from := in.tupleOf(TupleData{G: "start", Var: "v", Obj: fmt.Sprintf("p%d", f), Val: "freed"})
		for _, val := range []string{"freed", StopVal} {
			to := from
			to.val = in.vals.id(val)
			edges = append(edges, in.edge(from, to))
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fi, set := &funcInfo{in: in}, &edgeSet{}
		for _, e := range edges {
			set.add(fi, e)
		}
		for _, e := range edges {
			set.add(fi, e) // duplicates: the dedup scan
		}
	}
}
