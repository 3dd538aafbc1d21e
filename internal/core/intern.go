package core

import (
	"strconv"

	"repro/internal/cc"
)

// Tuple interning (DESIGN.md §10.3). The §5.2 cache-subsumption check
// and the suffix-summary relaxation both key on state tuples. A tuple's
// global state, state variable and value are symbols of the checker —
// a finite set, numbered once when the engine is built (numberStates) —
// and its object is an expression's canonical text, numbered on first
// sight and looked up from a scratch buffer (findObj). So a tuple is
// five integers, and the interner hash-conses those into one small id
// per distinct tuple: edgeSet membership, fpSeen coverage and summary
// edges are integer comparisons, and a tuple that already has its id
// (Tuple.id) is not hashed again. A summary edge is two such ids and a
// provenance index: the expression of an edge's object is the
// interner's representative for the object's id (reps), not the edge's.
// The rendered string, the tuple's canonical identity (two tuples are
// the same tuple iff they render the same), is built only when
// something reads it: the edgeSet group order, summaries rendered for
// a person, exported summaries.

// tid is an interned tuple id, unique within one engine. Id 0 is
// reserved: a Tuple whose id is noTID has not been looked up.
type tid int32

const noTID tid = 0

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
	// noTID's slot: in no map, and no edge or tuple names it.
	fixedTups = [...]tupleKey{{}}
	fixedStrs = [...]string{""}
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
	// reps holds one expression per object id: the first an edge was
	// made with (edge). Expressions of one canonical text are one object,
	// and what reads an edge's end expressions (suffixSkip, restoreObj,
	// exported summaries) reads only their names and text. The engine
	// empties it with its FPP table, once no funcInfo holds an edge
	// (retireAfter), so that no retired unit's AST stays reachable.
	reps []cc.Expr
	// phIDs holds the placeholder ids of global states 0-7, noTID until
	// first interned (id).
	phIDs [8]tid
	// keyBuf is the scratch an object's text is rendered into to be
	// looked up (findObj).
	keyBuf []byte
}

func (in *interner) init() {
	in.vars.strs, in.vals.strs = fixedVars[:], fixedVals[:]
	in.objs = names{ids: map[string]int32{"": 0}, strs: fixedObjs[:]}
	in.ids = map[tupleKey]tid{}
	in.tups, in.strs = fixedTups[:], fixedStrs[:]
}

// idOf returns the tuple's id, interning it and recording the id in the
// tuple the first time it is asked.
func (in *interner) idOf(t *Tuple) tid {
	if t.id == noTID {
		t.id = in.id(*t)
	}
	return t.id
}

// id interns the tuple. The placeholder of each of the first few global
// states is also kept by state (phIDs): every traversal records a
// placeholder edge, and its two ends are then looked up without hashing.
func (in *interner) id(t Tuple) tid {
	k := t.tupleKey
	ph := k.obj == 0 && int(k.g) < len(in.phIDs)
	if ph && in.phIDs[k.g] != noTID {
		return in.phIDs[k.g]
	}
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
	if ph {
		in.phIDs[k.g] = id
	}
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

// tuple rebuilds an interned tuple, its id and its object's
// representative expression; provenance is the edge's (funcInfo.toTuple).
func (in *interner) tuple(id tid) Tuple {
	t := Tuple{tupleKey: in.tups[id], id: id}
	t.ObjExpr = in.rep(t.obj)
	return t
}

// rep returns the object's representative expression, nil for the
// placeholder.
func (in *interner) rep(obj int32) cc.Expr {
	if int(obj) < len(in.reps) {
		return in.reps[obj]
	}
	return nil
}

// edge interns the two tuples into an edge without provenance
// (Engine.addEdge enters it), making each end's expression its object's
// representative if the object has none yet.
func (in *interner) edge(from, to *Tuple) edge {
	in.represent(from)
	in.represent(to)
	return edge{from: in.idOf(from), to: in.idOf(to)}
}

func (in *interner) represent(t *Tuple) {
	if t.obj == 0 || t.ObjExpr == nil {
		return
	}
	if n := int(t.obj) + 1 - len(in.reps); n > 0 {
		in.reps = append(in.reps, make([]cc.Expr, n)...)
	}
	if in.reps[t.obj] == nil {
		in.reps[t.obj] = t.ObjExpr
	}
}

// objID numbers an object expression by its canonical text, which is
// rendered into the interner's scratch buffer and copied only for an
// object seen for the first time.
func (in *interner) objID(e cc.Expr) int32 {
	if id, ok := in.findObj(e); ok {
		return id
	}
	return in.objs.id(string(in.keyBuf))
}

// findObj returns the number of an object expression's canonical text
// without giving it one. A probe allocates nothing.
func (in *interner) findObj(e cc.Expr) (int32, bool) {
	in.keyBuf = cc.AppendExpr(in.keyBuf[:0], e)
	id, ok := in.objs.ids[string(in.keyBuf)]
	return id, ok
}
