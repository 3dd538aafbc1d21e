package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"unsafe"

	"repro/internal/cc"
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

// bareFuncInfo returns a funcInfo of no blocks on an engine of its own,
// whose interner and slabs its sets use, and that interner.
func bareFuncInfo() (*funcInfo, *interner) {
	en := new(Engine)
	en.intern.init()
	return &funcInfo{en: en}, &en.intern
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
		fi, in := bareFuncInfo()
		set := &edgeSet{}
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
			from, to := in.tupleOf(draw()), in.tupleOf(draw())
			e := in.edge(&from, &to)
			if got, want := set.add(fi, e), model.add(e); got != want {
				t.Fatalf("seed %d step %d: add = %v, model %v", seed, i, got, want)
			}
			if set.len() != model.n {
				t.Fatalf("seed %d step %d: len = %d, model %d", seed, i, set.len(), model.n)
			}
			td := draw()
			probe, key := in.tupleOf(td), oracleKey(td)
			want := model.buckets[key]
			if got := set.from(in, &probe); renderEdges(in, got) != renderEdges(in, want) {
				t.Fatalf("seed %d step %d: from(%s) =\n%swant\n%s", seed, i, key, renderEdges(in, got), renderEdges(in, want))
			}
			if set.hasFrom(in, &probe) != (len(want) > 0) {
				t.Fatalf("seed %d step %d: hasFrom(%s) = %v", seed, i, key, set.hasFrom(in, &probe))
			}
			if got, want := renderEdges(in, set.all()), renderEdges(in, model.all()); got != want {
				t.Fatalf("seed %d step %d: all() =\n%swant\n%s", seed, i, got, want)
			}
		}
	}
}

// TestEdgeIsThreeIntegers pins the representation (DESIGN §10.3): a
// summary edge is two tuple ids and a provenance index, 12 bytes that
// the garbage collector never scans. An AST node or instance back in an
// edge, or a fourth field, fails here.
func TestEdgeIsThreeIntegers(t *testing.T) {
	if got := unsafe.Sizeof(edge{}); got != 12 {
		t.Errorf("an edge is %d bytes, want 12", got)
	}
	et := reflect.TypeOf(edge{})
	for i := range et.NumField() {
		switch f := et.Field(i); f.Type.Kind() {
		case reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64, reflect.Int,
			reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uint:
		default:
			t.Errorf("edge.%s is a %s, not an integer", f.Name, f.Type)
		}
	}
}

// An edge rebuilds exactly the tuples it was made from: identity and
// the object's expression from the interner, provenance from its
// function's table. An edge the set already holds keeps its first
// provenance.
func TestEdgeRoundTrip(t *testing.T) {
	fi, in := bareFuncInfo()
	en, set := fi.en, &edgeSet{}
	p := &cc.Ident{Name: "p"}
	inst := &Instance{v: in.vars.id("v"), obj: in.objs.id("p"), ObjExpr: p, val: in.vals.id("freed"), Data: 2}
	from := unknownTuple(in.vals.id("start"), inst.v, inst.obj)
	to := instTuple(in.vals.id("locked"), inst)
	if !en.addEdge(fi, set, &from, &to) {
		t.Fatal("a new edge was not kept")
	}
	later := *inst
	again := instTuple(to.g, &later)
	if en.addEdge(fi, set, &from, &again) {
		t.Fatal("a duplicate edge was kept")
	}
	e := set.all()[0]
	from.ObjExpr = p
	if got := in.tuple(e.from); got != from {
		t.Errorf("from tuple = %+v, want %+v", got, from)
	}
	if got := fi.toTuple(e); got != to {
		t.Errorf("to tuple = %+v, want %+v", got, to)
	}
	if len(fi.provs) != 1 {
		t.Errorf("provenance table holds %d entries, want 1", len(fi.provs))
	}
}

// A provenance table that outgrows its span moves to one twice as long
// and clears the one it leaves: that span's chunk is shared with other
// functions' tables and may outlive this one, so a pointer left in it
// would pin an instance, and through it an AST, of a retired unit.
func TestProvenanceGrowthClearsOldSpan(t *testing.T) {
	fi, in := bareFuncInfo()
	set := &edgeSet{}
	var old []*Instance
	for i := 0; i <= provSlot; i++ {
		if i == provSlot {
			old = fi.provs
		}
		inst := &Instance{v: in.vars.id("v"), obj: in.objs.id(fmt.Sprintf("p%d", i)), val: in.vals.id("freed")}
		from, to := unknownTuple(in.vals.id("start"), inst.v, inst.obj), instTuple(in.vals.id("start"), inst)
		if !fi.en.addEdge(fi, set, &from, &to) {
			t.Fatalf("edge %d was not kept", i)
		}
	}
	if len(old) != provSlot || cap(fi.provs) != 2*provSlot || len(fi.provs) != provSlot+1 {
		t.Fatalf("table moved from %d/%d entries to %d/%d, want %d/%d to %d/%d",
			len(old), cap(old), len(fi.provs), cap(fi.provs), provSlot, provSlot, provSlot+1, 2*provSlot)
	}
	for i, p := range old {
		if p != nil {
			t.Errorf("the span the table left still points at entry %d's instance", i)
		}
	}
	for i, e := range set.all() {
		if got := fi.toTuple(e); got.Prov == nil {
			t.Errorf("edge %d lost its provenance in the move", i)
		}
	}
}

func BenchmarkEdgeSetAdd(b *testing.B) {
	owner, in := bareFuncInfo()
	var edges []edge
	for f := 0; f < 6; f++ {
		from := in.tupleOf(TupleData{G: "start", Var: "v", Obj: fmt.Sprintf("p%d", f), Val: "freed"})
		for _, val := range []string{"freed", StopVal} {
			to := from
			to.val = in.vals.id(val)
			edges = append(edges, in.edge(&from, &to))
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fi, set := &funcInfo{en: owner.en}, &edgeSet{}
		for _, e := range edges {
			set.add(fi, e)
		}
		for _, e := range edges {
			set.add(fi, e) // duplicates: the dedup scan
		}
	}
}
