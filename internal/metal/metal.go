// Package metal implements the metal extension language: a DSL for
// writing bug-finding checkers as state machines over source-code
// patterns (§2-§4 of the paper). A checker declares hole variables
// ("state decl any_pointer v"), then lists states and their
// transitions:
//
//	sm free_checker;
//	state decl any_pointer v;
//
//	start:
//	    { kfree(v) } ==> v.freed
//	;
//
//	v.freed:
//	    { *v }       ==> v.stop, { err("using %s after free!", mc_identifier(v)); }
//	  | { kfree(v) } ==> v.stop, { err("double free of %s!",   mc_identifier(v)); }
//	;
//
// Path-specific transitions name both branch destinations:
//
//	start: { trylock(l) } ==> true=l.locked, false=l.stop ;
//
// Patterns compose with && and ||, escape to general-purpose
// predicates with ${ callout(...) }, and the special pattern
// $end_of_path$ fires when an instance permanently leaves scope
// (§3.2). Actions are calls to the verbs in Verbs (err, annotate,
// example, violation, incr, decr, kill_path, ...) — the
// general-purpose escape that C code actions provide in the paper. An
// action and a call-form callout are one parsed form, pattern.Call.
package metal

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/pattern"
)

// StopState is the distinguished sink state value: transitioning an
// instance to stop deletes its state machine (§2.1).
const StopState = "stop"

// StateRef names a state: a global state value (Var == "") or a
// variable-specific value bound to state variable Var ("v.freed").
type StateRef struct {
	Var string
	Val string
}

// IsStop reports whether the reference is the stop sink.
func (r StateRef) IsStop() bool { return r.Val == StopState }

// String renders the reference in metal syntax.
func (r StateRef) String() string {
	if r.Var == "" {
		return r.Val
	}
	return r.Var + "." + r.Val
}

// Verbs lists the action verbs (§3.2) a transition may call; Parse
// rejects any other, and the engine implements exactly these.
var Verbs = []string{
	"annotate", "check_data", "classify", "decr", "err", "example", "incr",
	"kill_path", "mark_fn", "note", "rule", "set_data", "violation",
}

// Transition is one rule: in state Source, when Pat matches, move to
// Dest (or the branch-specific TrueDest/FalseDest) and run Actions.
type Transition struct {
	ID     int
	Source StateRef
	Pat    pattern.Pattern
	// Dest is the destination for ordinary transitions. For
	// path-specific transitions (§3.2) TrueDest/FalseDest are set
	// instead and Dest is unused.
	Dest         StateRef
	PathSpecific bool
	TrueDest     StateRef
	FalseDest    StateRef
	Actions      []pattern.Call
	Line         int
}

// String renders the transition in metal syntax.
func (t *Transition) String() string {
	var sb strings.Builder
	sb.WriteString(t.Pat.String())
	sb.WriteString(" ==> ")
	if t.PathSpecific {
		fmt.Fprintf(&sb, "true=%s, false=%s", t.TrueDest, t.FalseDest)
	} else {
		sb.WriteString(t.Dest.String())
	}
	for _, a := range t.Actions {
		sb.WriteString(", { ")
		sb.WriteString(a.String())
		sb.WriteString("; }")
	}
	return sb.String()
}

// Checker is a compiled metal extension. It is read-only after Parse
// returns it: engines and analyzers only read it, so one parse is shared
// by every analyzer that loads the text, concurrently too. Code that
// adds Callouts does so to a parse of its own, before sharing it.
type Checker struct {
	Name string
	// Source is the text Parse compiled, and ID its content address
	// (cc.HashBytes over Source): a checker is its text, so ID is both
	// the registry ID and the checker's part of every cache key
	// (DESIGN.md §14.1).
	Source string
	ID     string
	// Vars maps state-variable names to their hole declarations.
	Vars map[string]*pattern.Hole
	// GlobalStates lists global state values in declaration order;
	// the first is the initial global state (§5.3).
	GlobalStates []string
	// VarStates maps each state variable to its declared state values
	// in order.
	VarStates map[string][]string
	// Transitions lists every transition in source order; order
	// matters (the first matching transition in the source state
	// fires).
	Transitions []*Transition
	// Callouts holds checker-registered callout functions, merged
	// over the builtin library by the engine.
	Callouts pattern.Registry
	// SourceLines counts the checker's source length (experiment E9).
	SourceLines int
}

// InitialGlobal returns the initial global state value.
func (c *Checker) InitialGlobal() string {
	if len(c.GlobalStates) == 0 {
		return "start"
	}
	return c.GlobalStates[0]
}

// WritesMarks reports whether the checker may write the §3.2
// composition marks: a transition runs mark_fn, or the checker carries
// Go callouts (Callouts), which nothing can inspect. Nested calls inside
// action arguments are rendering helpers, not effects.
func (c *Checker) WritesMarks() bool {
	if len(c.Callouts) > 0 {
		return true
	}
	for _, t := range c.Transitions {
		for _, a := range t.Actions {
			if a.Fn == "mark_fn" {
				return true
			}
		}
	}
	return false
}

// ReadsMarks reports whether the checker may read the composition
// marks: a pattern invokes the ${mc_fn_marked(...)} callout, or the
// checker carries Go callouts.
func (c *Checker) ReadsMarks() bool {
	found := len(c.Callouts) > 0
	for _, t := range c.Transitions {
		pattern.Walk(t.Pat, func(p pattern.Pattern) {
			if co, ok := p.(*pattern.Callout); ok && co.Fn == "mc_fn_marked" {
				found = true
			}
		})
	}
	return found
}

// String renders a summary of the checker, its variables in name
// order.
func (c *Checker) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "sm %s;\n", c.Name)
	names := make([]string, 0, len(c.Vars))
	for name := range c.Vars {
		names = append(names, name)
	}
	slices.Sort(names)
	for _, name := range names {
		h := c.Vars[name]
		meta := string(h.Meta)
		if meta == "" && h.CType != nil {
			meta = h.CType.String()
		}
		fmt.Fprintf(&sb, "state decl %s %s;\n", meta, name)
	}
	for _, t := range c.Transitions {
		fmt.Fprintf(&sb, "%s: %s ;\n", t.Source, t)
	}
	return sb.String()
}
