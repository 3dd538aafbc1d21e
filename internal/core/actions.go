package core

import (
	"fmt"
	"strings"

	"repro/internal/cc"
	"repro/internal/pattern"
	"repro/internal/report"
)

// actionCtx is the context in which a transition's actions execute:
// the escape hatch metal provides in place of the paper's C code
// actions (§3.2).
type actionCtx struct {
	Engine   *Engine
	State    *pathState
	Point    cc.Expr
	Pos      cc.Pos
	Bindings pattern.Bindings
	// Inst is the instance that triggered the transition (nil for
	// global-state and creation transitions).
	Inst *Instance
	// Class is the severity annotation collected from classify()
	// actions on the same transition.
	Class report.Class
	// Rule is the grouping fact for statistical ranking.
	Rule string
}

// actionFunc implements one action verb.
type actionFunc func(ctx *actionCtx, args []pattern.Arg)

// argString renders an action argument: bindings for holes, literal
// text otherwise, and the mc_identifier(v)/mc_location() helper calls.
func (ctx *actionCtx) argString(a pattern.Arg) string {
	switch {
	case a.IsStr:
		return a.Str
	case a.IsInt:
		return fmt.Sprintf("%d", a.Int)
	case a.Call != nil:
		switch a.Call.Fn {
		case "mc_identifier":
			if len(a.Call.Args) == 1 {
				return ctx.argString(a.Call.Args[0])
			}
		case "mc_location":
			return ctx.Pos.String()
		case "mc_function":
			return ctx.State.fn.Name
		}
		return a.Call.String()
	default:
		if b, ok := ctx.Bindings.Get(a.Hole); ok {
			return b.String()
		}
		if ctx.Inst != nil && a.Hole == ctx.instVar() {
			return ctx.Engine.intern.objs.name(ctx.Inst.obj)
		}
		return a.Hole
	}
}

// argInstance resolves an action argument to the instance it refers
// to: the triggering instance when the hole names its state variable,
// else the instance attached to the bound object.
func (ctx *actionCtx) argInstance(a pattern.Arg) *Instance {
	if a.Hole == "" {
		return nil
	}
	if ctx.Inst != nil && a.Hole == ctx.instVar() {
		return ctx.Inst
	}
	if b, ok := ctx.Bindings.Get(a.Hole); ok && b.Expr != nil {
		if obj, ok := ctx.Engine.intern.objs.find(cc.ExprKey(b.Expr)); ok {
			return ctx.State.sm.FindObj(obj)
		}
	}
	return nil
}

// instVar names the triggering instance's state variable.
func (ctx *actionCtx) instVar() string { return ctx.Engine.intern.vars.name(ctx.Inst.v) }

// verbs is the action library: metal.Verbs (§3.2), each implemented.
// Native Go code extends a checker through its pattern callouts
// (metal.Checker.Callouts), not with new verbs.
var verbs = map[string]actionFunc{
	// err("fmt", args...): report a rule violation. %s directives
	// are substituted with the remaining arguments in order.
	"err": func(ctx *actionCtx, args []pattern.Arg) {
		if len(args) > 0 {
			ctx.Engine.emitReport(ctx, ctx.format(args))
		}
	},
	// classify("SECURITY"|"ERROR"|"MINOR"): set the severity
	// class for errors reported by this transition (§9).
	"classify": func(ctx *actionCtx, args []pattern.Arg) {
		if len(args) == 1 && args[0].IsStr {
			ctx.Class = report.Class(args[0].Str)
		}
	},
	// rule("fact") or rule(fn): set the grouping fact used by
	// statistical ranking (§9).
	"rule": func(ctx *actionCtx, args []pattern.Arg) {
		if len(args) > 0 {
			ctx.Rule = ctx.join(args)
		}
	},
	// example(fact...): count one successful rule check (§9
	// z-statistic numerator input e).
	"example": func(ctx *actionCtx, args []pattern.Arg) {
		ctx.Engine.countRule(ctx.ruleName(args), true)
	},
	// violation(fact...): count one rule violation (c).
	"violation": func(ctx *actionCtx, args []pattern.Arg) {
		ctx.Engine.countRule(ctx.ruleName(args), false)
	},
	// annotate("SECURITY"): attach a path annotation; subsequent
	// errors on this path inherit the class (§9 checker-specific
	// ranking — the SECURITY/ERROR path annotator).
	"annotate": func(ctx *actionCtx, args []pattern.Arg) {
		if len(args) == 1 && args[0].IsStr {
			ctx.State.setPathClass(report.Class(args[0].Str))
		}
	},
	// kill_path(): stop traversing the current path — the
	// path-kill composition idiom for panic-like functions (§3.2).
	"kill_path": func(ctx *actionCtx, args []pattern.Arg) {
		ctx.State.killPath = true
	},
	// mark_fn(fn, "key"): annotate the called function so
	// composed checkers can see it (AST annotation composition,
	// §3.2). fn must be bound to a call or a name.
	"mark_fn": func(ctx *actionCtx, args []pattern.Arg) {
		if len(args) != 2 || !args[1].IsStr {
			return
		}
		b, _ := ctx.Bindings.Get(args[0].Hole)
		if name := fnNamed(args[0], b); name != "" {
			ctx.Engine.MarkFn(name, args[1].Str)
		}
	},
	// incr(v)/decr(v)/set_data(v, n): manipulate the instance's
	// data value (the recursive-lock depth example of §3.2).
	"incr": func(ctx *actionCtx, args []pattern.Arg) {
		if in := ctx.firstInstance(args); in != nil {
			in.Data++
		}
	},
	"decr": func(ctx *actionCtx, args []pattern.Arg) {
		if in := ctx.firstInstance(args); in != nil {
			in.Data--
		}
	},
	"set_data": func(ctx *actionCtx, args []pattern.Arg) {
		if len(args) == 2 && args[1].IsInt {
			if in := ctx.argInstance(args[0]); in != nil {
				in.Data = args[1].Int
			}
		}
	},
	// check_data(v, lo, hi, "msg"): report when the data value
	// leaves [lo, hi] — "If this depth ever went below 0 or
	// exceeded a small constant, the extension would report an
	// incorrect lock pairing" (§3.2).
	"check_data": func(ctx *actionCtx, args []pattern.Arg) {
		if len(args) != 4 || !args[1].IsInt || !args[2].IsInt || !args[3].IsStr {
			return
		}
		in := ctx.argInstance(args[0])
		if in == nil {
			return
		}
		if in.Data < args[1].Int || in.Data > args[2].Int {
			ctx.Engine.emitReport(ctx, fmt.Sprintf("%s (%s depth %d)", args[3].Str, ctx.Engine.intern.objs.name(in.obj), in.Data))
		}
	},
	// note("text", args...): append a step to the instance's
	// why-trace without reporting.
	"note": func(ctx *actionCtx, args []pattern.Arg) {
		if len(args) > 0 && ctx.Inst != nil {
			ctx.Inst.trace = ctx.Inst.trace.push(traceNote, ctx.Point, ctx.format(args), "")
		}
	},
}

// ruleName builds the rule fact string from example()/violation()
// arguments, defaulting to the checker name.
func (ctx *actionCtx) ruleName(args []pattern.Arg) string {
	if len(args) == 0 {
		if ctx.Rule != "" {
			return ctx.Rule
		}
		return ctx.Engine.Checker.Name
	}
	return ctx.join(args)
}

// join renders the arguments of rule(), example() and violation() as
// one rule fact.
func (ctx *actionCtx) join(args []pattern.Arg) string {
	parts := make([]string, len(args))
	for i, a := range args {
		parts[i] = ctx.argString(a)
	}
	return strings.Join(parts, ":")
}

// format renders the arguments of err() and note(): the first with
// each %s replaced, in order, by the rest.
func (ctx *actionCtx) format(args []pattern.Arg) string {
	msg := ctx.argString(args[0])
	for _, a := range args[1:] {
		msg = strings.Replace(msg, "%s", ctx.argString(a), 1)
	}
	return msg
}

// firstInstance resolves the first argument to an instance, falling
// back to the triggering instance.
func (ctx *actionCtx) firstInstance(args []pattern.Arg) *Instance {
	if len(args) > 0 {
		if in := ctx.argInstance(args[0]); in != nil {
			return in
		}
	}
	return ctx.Inst
}

// fnNamed is the function a mark_fn or mc_fn_marked argument names: a
// string literal's text, or the callee of the call or the identifier
// the hole is bound to (b).
func fnNamed(a pattern.Arg, b pattern.Binding) string {
	if a.IsStr {
		return a.Str
	}
	switch e := b.Expr.(type) {
	case *cc.CallExpr:
		return cc.CalleeName(e)
	case *cc.Ident:
		return e.Name
	}
	return ""
}

// runActions executes a transition's actions in order. classify() and
// rule() are prescanned so their effect applies regardless of textual
// position relative to err().
func (en *Engine) runActions(ctx *actionCtx, actions []pattern.Call) {
	for _, a := range actions {
		if a.Fn == "classify" || a.Fn == "rule" {
			verbs[a.Fn](ctx, a.Args)
		}
	}
	for _, a := range actions {
		if a.Fn != "classify" && a.Fn != "rule" {
			verbs[a.Fn](ctx, a.Args)
		}
	}
}
