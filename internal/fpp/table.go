package fpp

import (
	"slices"

	"repro/internal/cc"
)

// term is an interned term id, local to one Table. noTerm marks an
// expression too complex to name stably.
type term int32

const noTerm term = -1

type termKind uint8

const (
	kindVar    termKind = iota // a = name id, b = version ("x#2")
	kindConst                  // v = value ("$5")
	kindUnary                  // op(a)
	kindBinary                 // (a op b)
	kindField                  // a.name / a->name: op = TokDot or TokArrow, b = name id
	kindIndex                  // a[b]
)

// node is one hash-consed term. Its fields are exactly what the
// rendered form (render_test.go) shows, so two expressions share a term
// iff they render to the same string (casts are transparent, prefix and
// postfix forms of a unary operator coincide).
type node struct {
	kind termKind
	op   cc.TokKind
	a, b int32
	v    int64
}

// Table interns the terms and fact-set fingerprints of the
// environments created from it. Term ids and fingerprint ids are only
// comparable within one table, and only until Reset; ids count from 0
// (terms) and 1 (fingerprints) in first-seen order, so a table that has
// been Reset hands out exactly the ids a new one would. The engine keeps
// one (core.Engine's terms): an environment never crosses a call
// boundary, and ids need only be unique within their table, so one table
// serves every function the engine enters, and the engine empties it
// when its last function is retired. Not safe for concurrent use.
type Table struct {
	names   map[string]int32
	nameStr []string
	ids     map[node]term
	nodes   []node
	// A fact set is interned by a hash of its canonical (sorted,
	// version-free) facts: heads maps a hash to the newest fingerprint
	// id with that hash, and sets[id-1] holds the id's facts,
	// arena[start:end], and the next older id with the same hash (0
	// ends the chain). Every set's facts are kept once, in arena.
	heads map[uint64]uint32
	sets  []factSet
	arena []fact
	// sorted is Fingerprint's scratch space.
	sorted []fact
}

// factSet is one interned fact set: a span of its table's arena and the
// link to the next set of its hash chain.
type factSet struct {
	start, end int32
	next       uint32
}

// NewTable returns an empty table.
func NewTable() *Table { return &Table{} }

// NewEnv returns an empty fact environment over the table's terms.
func (tb *Table) NewEnv() *Env { return &Env{tab: tb} }

// Len reports how many terms and fingerprints the table holds.
func (tb *Table) Len() (terms, fingerprints int) { return len(tb.nodes), len(tb.sets) }

// Reset empties the table in place, keeping the capacity of its maps
// and arrays, and lets go of the names it held. Every id handed out
// before is void, and so is every environment over the table.
func (tb *Table) Reset() {
	if len(tb.nameStr) == 0 && len(tb.nodes) == 0 && len(tb.sets) == 0 {
		return // empty already: every map entry has its list entry
	}
	clear(tb.names)
	clear(tb.nameStr)
	tb.nameStr = tb.nameStr[:0]
	clear(tb.ids)
	tb.nodes = tb.nodes[:0]
	clear(tb.heads)
	tb.sets = tb.sets[:0]
	tb.arena = tb.arena[:0]
}

func (tb *Table) nameID(s string) int32 {
	id, ok := tb.names[s]
	if !ok {
		if tb.names == nil {
			tb.names = map[string]int32{}
		}
		id = int32(len(tb.nameStr))
		tb.nameStr = append(tb.nameStr, s)
		tb.names[s] = id
	}
	return id
}

func (tb *Table) intern(n node) term {
	t, ok := tb.ids[n]
	if !ok {
		if tb.ids == nil {
			tb.ids = map[node]term{}
		}
		t = term(len(tb.nodes))
		tb.nodes = append(tb.nodes, n)
		tb.ids[n] = t
	}
	return t
}

func (tb *Table) constID(v int64) term { return tb.intern(node{kind: kindConst, v: v}) }

// constVal reports the value a constant term carries.
func (tb *Table) constVal(t term) (int64, bool) {
	n := &tb.nodes[t]
	return n.v, n.kind == kindConst
}

// fingerprint interns a canonical (sorted, duplicate-free) fact list.
// A list the table has seen costs a hash and a comparison; a new one is
// appended to the arena, which allocates only while the table grows.
func (tb *Table) fingerprint(facts []fact) uint32 {
	if len(facts) == 0 {
		return 0
	}
	h := hashFacts(facts)
	for id := tb.heads[h]; id != 0; id = tb.sets[id-1].next {
		if s := tb.sets[id-1]; slices.Equal(tb.arena[s.start:s.end], facts) {
			return id
		}
	}
	if tb.heads == nil {
		tb.heads = map[uint64]uint32{}
	}
	start := int32(len(tb.arena))
	tb.arena = append(tb.arena, facts...)
	tb.sets = append(tb.sets, factSet{start: start, end: int32(len(tb.arena)), next: tb.heads[h]})
	id := uint32(len(tb.sets))
	tb.heads[h] = id
	return id
}

// hashFacts is FNV-1a over the facts' three words. Two sets that share a
// hash are told apart by their facts, so the hash only needs to spread.
func hashFacts(facts []fact) uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	for _, f := range facts {
		h = (h ^ uint64(uint32(f.kind))) * prime
		h = (h ^ uint64(uint32(f.a))) * prime
		h = (h ^ uint64(uint32(f.b))) * prime
	}
	return h
}
