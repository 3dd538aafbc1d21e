package core

import (
	"strconv"

	"repro/internal/cc"
)

// Tuple interning (DESIGN.md §10.3). The §5.2 cache-subsumption check
// and the suffix-summary relaxation both key on state tuples. A tuple's
// global state, state variable and value are symbols of the checker —
// a finite set, numbered once when the engine is built (numberStates) —
// and its object is an expression key, numbered on first sight. So a
// tuple is five integers, and the interner hash-conses those into one
// small id per distinct tuple: edgeSet membership, fpSeen coverage and
// summary edges are integer comparisons. The rendered string, the
// tuple's canonical identity (two tuples are the same tuple iff they
// render the same), is built only when something reads it: the edgeSet
// group order, summaries rendered for a person, exported summaries.

// tid is an interned tuple id, unique within one engine.
type tid int32

// names numbers strings densely within one engine, from the fixed ones
// it starts with. A checker's variables and values are a dozen strings,
// numbered once and looked up by name only when a summary is imported,
// so they are scanned; ids indexes the open-ended object keys.
type names struct {
	ids  map[string]int32
	strs []string
}

// id returns s's number, giving s the next one on first sight.
func (n *names) id(s string) int32 {
	if id, ok := n.find(s); ok {
		return id
	}
	id := int32(len(n.strs))
	n.strs = append(n.strs, s)
	if n.ids != nil {
		n.ids[s] = id
	}
	return id
}

// find returns s's number without giving it one.
func (n *names) find(s string) (int32, bool) {
	if n.ids == nil {
		for i, x := range n.strs {
			if x == s {
				return int32(i), true
			}
		}
		return 0, false
	}
	id, ok := n.ids[s]
	return id, ok
}

func (n *names) name(id int32) string { return n.strs[id] }

// The symbols every engine numbers first, whatever its checker: id 0 is
// "" in each table (no variable, no value, the placeholder's object).
// The tables start as full-capacity views of these arrays, so their
// first append copies and the arrays are never written.
var (
	fixedVars = [...]string{""}
	fixedVals = [...]string{"", UnknownVal, StopVal}
	fixedObjs = [...]string{""}
)

const (
	symUnknown int32 = 1 + iota // UnknownVal
	symStop                     // StopVal
)

// tupleKey is a tuple's identity: g and val number state values, v the
// state variable, obj the object key, 0 the placeholder <> (whose
// other fields are then 0 too: id normalises them).
type tupleKey struct {
	g, v, val, obj int32
	data           int64
}

// interner hash-conses tuples. One per engine; engines run on a
// single goroutine each, so no locking.
type interner struct {
	// vars numbers state variables (0: none), vals state values — global
	// and variable-specific alike, unknown and stop included — and objs
	// object keys (0: the placeholder).
	vars, vals, objs names
	ids              map[tupleKey]tid
	tups             []tupleKey // tid -> identity
	strs             []string   // tid -> rendered key, "" until key asks
}

func newInterner() *interner {
	in := &interner{}
	in.init()
	return in
}

func (in *interner) init() {
	in.vars.strs, in.vals.strs = fixedVars[:], fixedVals[:]
	in.objs = names{ids: map[string]int32{"": 0}, strs: fixedObjs[:]}
	in.ids = map[tupleKey]tid{}
}

// id interns the tuple.
func (in *interner) id(t Tuple) tid {
	k := t.tupleKey
	if k.obj == 0 {
		k = tupleKey{g: k.g}
	}
	if id, ok := in.ids[k]; ok {
		return id
	}
	id := tid(len(in.tups))
	in.tups = append(in.tups, k)
	in.strs = append(in.strs, "")
	in.ids[k] = id
	return id
}

// key returns the rendered identity of an interned id, e.g.
// "(start,v:p->freed)", "(start,v:p->locked/2)" or "(start,<>)".
func (in *interner) key(id tid) string {
	if s := in.strs[id]; s != "" {
		return s
	}
	k := &in.tups[id]
	var s string
	if k.obj == 0 {
		s = "(" + in.vals.name(k.g) + ",<>)"
	} else {
		val := in.vals.name(k.val)
		if k.data != 0 {
			val += "/" + strconv.FormatInt(k.data, 10)
		}
		s = "(" + in.vals.name(k.g) + "," + in.vars.name(k.v) + ":" + in.objs.name(k.obj) + "->" + val + ")"
	}
	in.strs[id] = s
	return s
}

// tuple rebuilds the identity part of an interned tuple.
func (in *interner) tuple(id tid) Tuple { return Tuple{tupleKey: in.tups[id]} }

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

// objID numbers an object expression's canonical key.
func (in *interner) objID(e cc.Expr) int32 { return in.objs.id(cc.ExprKey(e)) }
