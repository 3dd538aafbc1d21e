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
// (§3.2). Actions are calls into a registered action library (err,
// annotate, example, violation, incr, decr, kill_path, ...) — the
// general-purpose escape that C code actions provide in the paper.
package metal

import (
	"fmt"
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

// ActionArg is an argument to an action call: a hole reference, a
// literal, or a nested call (e.g. mc_identifier(v)).
type ActionArg struct {
	Hole  string
	Str   string
	IsStr bool
	Int   int64
	IsInt bool
	Call  *Action
}

// Action is one action-call statement in a transition's action block.
type Action struct {
	Fn   string
	Args []ActionArg
}

// String renders the action.
func (a *Action) String() string {
	parts := make([]string, len(a.Args))
	for i, arg := range a.Args {
		switch {
		case arg.IsStr:
			parts[i] = fmt.Sprintf("%q", arg.Str)
		case arg.IsInt:
			parts[i] = fmt.Sprintf("%d", arg.Int)
		case arg.Call != nil:
			parts[i] = arg.Call.String()
		default:
			parts[i] = arg.Hole
		}
	}
	return a.Fn + "(" + strings.Join(parts, ", ") + ")"
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
	Actions      []Action
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

// Checker is a compiled metal extension.
type Checker struct {
	Name string
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

// UsesAction reports whether any transition runs the named action
// verb (directly; nested calls inside action arguments are rendering
// helpers, not effects). The engine uses it to detect checkers that
// write shared composition annotations (mark_fn).
func (c *Checker) UsesAction(name string) bool {
	for _, t := range c.Transitions {
		for _, a := range t.Actions {
			if a.Fn == name {
				return true
			}
		}
	}
	return false
}

// UsesCallout reports whether any transition's pattern invokes the
// named ${...} callout. The engine uses it to detect checkers that
// read shared composition annotations (mc_fn_marked).
func (c *Checker) UsesCallout(name string) bool {
	found := false
	for _, t := range c.Transitions {
		pattern.Walk(t.Pat, func(p pattern.Pattern) {
			if co, ok := p.(*pattern.Callout); ok && co.FnName == name {
				found = true
			}
		})
		if found {
			return true
		}
	}
	return false
}

// String renders a summary of the checker.
func (c *Checker) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "sm %s;\n", c.Name)
	for name, h := range c.Vars {
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
