package fpp

import (
	"encoding/binary"

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
// comparable within one table; the engine keeps one per analyzed
// function (environments never cross a call boundary), so the table
// dies with that function's caches. Not safe for concurrent use.
type Table struct {
	names   map[string]int32
	nameStr []string
	ids     map[node]term
	nodes   []node
	// fps maps a canonical fact list (sorted, 12 bytes a fact) to its
	// fingerprint id, counting from 1; 0 is the empty list.
	fps map[string]uint32
	// sorted and buf are Fingerprint's scratch space.
	sorted []fact
	buf    []byte
}

// NewTable returns an empty table.
func NewTable() *Table { return &Table{} }

// NewEnv returns an empty fact environment over the table's terms.
func (tb *Table) NewEnv() *Env { return &Env{tab: tb} }

// Len reports how many terms and fingerprints the table holds.
func (tb *Table) Len() (terms, fingerprints int) { return len(tb.nodes), len(tb.fps) }

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

// fingerprint interns a canonical (sorted, duplicate-free) fact list,
// allocating only the first time the list is seen.
func (tb *Table) fingerprint(facts []fact) uint32 {
	if len(facts) == 0 {
		return 0
	}
	buf := tb.buf[:0]
	for _, f := range facts {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(f.kind))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(f.a))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(f.b))
	}
	tb.buf = buf
	id, ok := tb.fps[string(buf)]
	if !ok {
		if tb.fps == nil {
			tb.fps = map[string]uint32{}
		}
		id = uint32(len(tb.fps)) + 1
		tb.fps[string(buf)] = id
	}
	return id
}
