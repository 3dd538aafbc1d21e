// Package core implements the xgcc analysis engine: metal extensions
// executed by a context-sensitive, interprocedural, caching
// depth-first traversal of the program supergraph (§5-§6 of the
// paper), with the false-positive suppression machinery of §8
// (kill-on-redefinition, synonyms, false path pruning) built in.
package core

import (
	"fmt"

	"repro/internal/cc"
)

// UnknownVal is the distinguished value used in the start tuple of add
// edges: "(s, v:t→unknown)" means nothing is known about t at block
// entry (§5.2).
const UnknownVal = "unknown"

// StopVal is the stop sink's value string.
const StopVal = "stop"

// Instance is one variable-specific state-variable instance: a state
// value attached to a program object, plus the extension-defined data
// value and the provenance the ranking criteria need (§3.1, §5.1).
type Instance struct {
	// v, obj and val are the state variable, the object's canonical
	// expression key and the state value, numbered by the engine's
	// interner (intern.go).
	v, obj, val int32
	ObjExpr     cc.Expr
	// Data is the extension-manipulable data value (the paper allows
	// an arbitrary C struct; we provide an integer, which the action
	// library manipulates). Data participates in tuple identity so
	// caching stays sound under determinism.
	Data int64

	// Group links synonym instances (§8): instances in the same
	// nonzero group mirror state changes.
	Group int
	// SynDepth is the length of the assignment chain that created
	// this instance (§9 ranking criterion 3).
	SynDepth int

	// CreatedAt is the program point that created the instance; an
	// instance cannot trigger a transition at that point (§3.1).
	CreatedAt cc.Expr

	// Provenance for ranking and error reporting.
	StartPos  cc.Pos
	StartFunc string
	Conds     int
	CallDepth int
	// trace is the instance's event history as an immutable cons list:
	// clones share the list with the original, so cloning an instance
	// (the hottest allocation site in the DFS — every path split and
	// every call boundary clones the whole Active set) copies one
	// pointer instead of the accumulated history. A cell holds its event,
	// not its line: the point and the strings the event had at hand. The
	// lines are rendered only for a report the set keeps (emitReport),
	// so an instance whose history no report reads costs one cell per
	// event and no formatting.
	trace *traceList

	// Scope classification of the object.
	GlobalObj bool
	Static    bool
	HomeFile  string
	// Inactive marks file-scope instances temporarily out of scope
	// while the analysis is in another file (§6.1).
	Inactive bool
}

// clone copies an instance. The trace cons list is immutable and
// shared, so the struct copy is the whole operation.
func (in *Instance) clone() *Instance {
	cp := *in
	return &cp
}

// traceKind names a why-trace event; each renders one line format.
type traceKind uint8

const (
	traceEnters  traceKind = iota // "<pos>: <a> enters state <b> at <pt>"
	traceMoves                    // "<pos>: <a> -> <b> at <pt>"
	traceSynonym                  // "<pos>: <a> becomes a synonym of <b>"
	traceNote                     // "<pos>: <a>"
)

// traceList is an immutable persistent list of why-trace events, newest
// first. Pushing never mutates existing cells, so any number of cloned
// instances can share a tail. A cell's position is its point's: a
// note's action context is positioned at the point it runs at
// (runTransitionActions), and an event with no point renders as 0:0.
// Rendering reads the point's expression, which no phase mutates once
// the program is built (ReleaseBody drops references, it does not
// rewrite nodes).
type traceList struct {
	prev *traceList
	pt   cc.Expr
	a, b string
	n    int32
	kind traceKind
}

// push returns a new list with the event appended. Works on a nil
// receiver.
func (t *traceList) push(kind traceKind, pt cc.Expr, a, b string) *traceList {
	n := int32(1)
	if t != nil {
		n = t.n + 1
	}
	return &traceList{prev: t, pt: pt, a: a, b: b, n: n, kind: kind}
}

// line renders one event.
func (t *traceList) line() string {
	pos := posOf(t.pt)
	switch t.kind {
	case traceEnters:
		return fmt.Sprintf("%s: %s enters state %s at %s", pos, t.a, t.b, cc.ExprString(t.pt))
	case traceMoves:
		return fmt.Sprintf("%s: %s -> %s at %s", pos, t.a, t.b, cc.ExprString(t.pt))
	case traceSynonym:
		return fmt.Sprintf("%s: %s becomes a synonym of %s", pos, t.a, t.b)
	}
	return fmt.Sprintf("%s: %s", pos, t.a)
}

// strings renders the list oldest-first.
func (t *traceList) strings() []string {
	if t == nil {
		return nil
	}
	out := make([]string, t.n)
	for c := t; c != nil; c = c.prev {
		out[c.n-1] = c.line()
	}
	return out
}

// Tuple is one state tuple (§5.2): the global instance value plus one
// variable-specific instance, or the <> placeholder when obj is 0. Its
// identity is the interner's numbering (tupleKey); the value is UnknownVal
// in add-edge starts.
type Tuple struct {
	tupleKey
	// id is the tuple's interned id once something has looked it up
	// (interner.idOf), else noTID: a block's entry tuples carry the id
	// the cache check found, so recording their edges hashes nothing.
	id tid
	// ObjExpr and Prov carry reconstruction material for applying
	// summary edges at call boundaries; they do not participate in
	// identity. An edge stores neither: a tuple rebuilt from one takes
	// its object's representative expression and the edge's entry in its
	// function's provenance table (funcInfo.toTuple).
	ObjExpr cc.Expr
	Prov    *Instance
}

// placeholderTuple builds the (g,<>) tuple.
func placeholderTuple(g int32) Tuple { return Tuple{tupleKey: tupleKey{g: g}} }

// instTuple builds the tuple for an instance under global state g.
func instTuple(g int32, in *Instance) Tuple {
	return Tuple{
		tupleKey: tupleKey{g: g, v: in.v, val: in.val, obj: in.obj, data: in.Data},
		ObjExpr:  in.ObjExpr, Prov: in,
	}
}

// unknownTuple builds the add-edge start tuple (g, v:obj->unknown).
func unknownTuple(g, v, obj int32) Tuple {
	return Tuple{tupleKey: tupleKey{g: g, v: v, val: symUnknown, obj: obj}}
}

// SM is the extension's state: one global state value (g, numbered
// like an instance's value) and the active variable-specific instances
// (§5.1's sm_instance). The <> placeholder is implicit: it stands for
// the state when no active instance is in scope.
type SM struct {
	g      int32
	Active []*Instance
}

// cloneActive appends clones of from's instances to s's own array, for a
// path split: modifications on one path revert when the DFS backtracks
// (§5.1). The instances themselves are cloned, not shared, because a
// function's provenance table holds the end instance of its summary
// edges (funcInfo.provs) and restore reads it after the split.
func (s *SM) cloneActive(from *SM) {
	for _, in := range from.Active {
		s.Active = append(s.Active, in.clone())
	}
}

// Find returns the active instance attached to the given object for
// the given state variable, or nil.
func (s *SM) Find(v, obj int32) *Instance {
	for _, in := range s.Active {
		if in.v == v && in.obj == obj {
			return in
		}
	}
	return nil
}

// lastLive returns the last active, in-scope instance attached to the
// object for the state variable, or nil: the one a map keyed by
// (variable, object) would end up holding.
func (s *SM) lastLive(v, obj int32) *Instance {
	for i := len(s.Active) - 1; i >= 0; i-- {
		if in := s.Active[i]; !in.Inactive && in.v == v && in.obj == obj {
			return in
		}
	}
	return nil
}

// FindObj returns any active instance attached to the object.
func (s *SM) FindObj(obj int32) *Instance {
	for _, in := range s.Active {
		if in.obj == obj {
			return in
		}
	}
	return nil
}

// Remove deletes the instance (by pointer identity).
func (s *SM) Remove(in *Instance) {
	for i, x := range s.Active {
		if x == in {
			s.Active = append(s.Active[:i], s.Active[i+1:]...)
			return
		}
	}
}

// GroupMembers returns the instances sharing in's synonym group
// (including in itself); a zero group is just {in}.
func (s *SM) GroupMembers(in *Instance) []*Instance {
	if in.Group == 0 {
		return []*Instance{in}
	}
	var out []*Instance
	for _, x := range s.Active {
		if x.Group == in.Group {
			out = append(out, x)
		}
	}
	return out
}
