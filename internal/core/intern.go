package core

// Tuple interning (DESIGN.md §10). The §5.2 cache-subsumption check
// and the suffix-summary relaxation both key on state tuples, which
// were originally identified by their rendered Key() strings — a
// fmt.Sprintf per lookup on the hottest paths in the engine. The
// interner hash-conses tuples into small integer ids per engine, so
// edgeSet membership and fpSeen coverage become integer comparisons and
// a summary edge stores two ids instead of two tuples. The rendered
// string is still produced, but exactly once per unique tuple: it
// stays the canonical identity (two tuples are the same tuple iff
// their Key() strings are equal) and the deterministic sort key for
// edgeSet.all(), so interning cannot perturb output order.

// tid is an interned tuple id, unique within one engine.
type tid int32

// tupleKey is the hashable identity of a tuple's rendered Key(). It
// is a cache key only: two distinct tupleKeys can render to the same
// string (a Val already carrying a "/data" suffix), and then they
// share a tid.
type tupleKey struct {
	g, varName, obj, val string
	data                 int64
}

// interner hash-conses tuples. One per engine; engines run on a
// single goroutine each, so no locking.
type interner struct {
	ids   map[tupleKey]tid
	byStr map[string]tid
	strs  []string // tid -> rendered Key()
	// tups holds each tid's identity fields once, as first interned;
	// edges rebuild their tuples from it.
	tups []tupleKey
}

func newInterner() *interner {
	return &interner{ids: map[tupleKey]tid{}, byStr: map[string]tid{}}
}

// idsCacheCap bounds the struct-key cache. ids is pure cache in front
// of byStr — two tupleKeys may share a tid, and dropping an entry only
// costs a re-render on the next lookup — so it can be reset at any
// time. Without a bound it grows monotonically for the engine's
// lifetime (one entry per distinct tuple identity ever seen), which
// under a long-lived engine on a large tree dwarfs the canonical
// byStr/strs tables it fronts.
const idsCacheCap = 1 << 16

// id interns the tuple, rendering its Key() string only on first
// sight of the (g, var, obj, val, data) combination.
func (in *interner) id(t Tuple) tid {
	k := tupleKey{g: t.G, varName: t.Var, obj: t.Obj, val: t.Val, data: t.Data}
	if id, ok := in.ids[k]; ok {
		return id
	}
	id := in.idByStr(t.Key(), k)
	if len(in.ids) >= idsCacheCap {
		in.ids = make(map[tupleKey]tid, idsCacheCap/4)
	}
	in.ids[k] = id
	return id
}

// endRun releases the run-scoped struct-key cache. byStr/strs/tups must
// survive — interned tids are held by the engine's summary structures
// (edge sets, block caches) and must keep rendering — but they are
// keyed by canonical identity, so re-running the engine over the same
// tree re-derives the same ids without growing them.
func (in *interner) endRun() {
	in.ids = map[tupleKey]tid{}
}

func (in *interner) idByStr(s string, k tupleKey) tid {
	id, ok := in.byStr[s]
	if !ok {
		id = tid(len(in.strs))
		in.strs = append(in.strs, s)
		in.tups = append(in.tups, k)
		in.byStr[s] = id
	}
	return id
}

// key returns the rendered Key() string for an interned id.
func (in *interner) key(id tid) string { return in.strs[id] }

// tuple rebuilds the identity part of an interned tuple.
func (in *interner) tuple(id tid) Tuple {
	k := &in.tups[id]
	return Tuple{G: k.g, Var: k.varName, Obj: k.obj, Val: k.val, Data: k.data}
}

// edge interns the two tuples into an edge.
func (in *interner) edge(from, to Tuple) edge {
	return edge{from: in.id(from), to: in.id(to), fromExpr: from.ObjExpr, toExpr: to.ObjExpr, prov: to.Prov}
}

// fromTuple and toTuple rebuild an edge's end points.
func (in *interner) fromTuple(e edge) Tuple {
	t := in.tuple(e.from)
	t.ObjExpr = e.fromExpr
	return t
}

func (in *interner) toTuple(e edge) Tuple {
	t := in.tuple(e.to)
	t.ObjExpr, t.Prov = e.toExpr, e.prov
	return t
}
