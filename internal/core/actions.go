package core

import (
	"bytes"
	"fmt"
	"strconv"

	"repro/internal/cc"
	"repro/internal/pattern"
	"repro/internal/report"
)

// actionCtx is the context in which a transition's actions execute:
// the escape hatch metal provides in place of the paper's C code
// actions (§3.2). There is one per engine (Engine.act), refilled for
// every fired transition (runTransitionActions): actions never fire
// transitions, so no two are live at once.
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
	// rule holds the arguments of the transition's rule(), whose fact
	// groups its reports for statistical ranking; nil without one.
	rule []pattern.Arg
	// buf is the scratch rule facts and messages are rendered into. It
	// keeps its capacity from one transition to the next; a rendering is
	// good until the next one.
	buf []byte
}

// actionFunc implements one action verb.
type actionFunc func(ctx *actionCtx, args []pattern.Arg)

// appendArg appends an action argument's text to b: bindings for holes,
// literal text otherwise, and the mc_identifier(v)/mc_location()/
// mc_function() helper calls.
func (ctx *actionCtx) appendArg(b []byte, a pattern.Arg) []byte {
	switch {
	case a.IsStr:
		return append(b, a.Str...)
	case a.IsInt:
		return strconv.AppendInt(b, a.Int, 10)
	case a.Call != nil:
		switch a.Call.Fn {
		case "mc_identifier":
			if len(a.Call.Args) == 1 {
				return ctx.appendArg(b, a.Call.Args[0])
			}
		case "mc_location":
			return append(b, ctx.Pos.String()...)
		case "mc_function":
			return append(b, ctx.State.fn.Name...)
		}
		return append(b, a.Call.String()...)
	default:
		if bnd, ok := ctx.Bindings.Get(a.Hole); ok {
			if bnd.Expr != nil {
				return cc.AppendExpr(b, bnd.Expr)
			}
			return append(b, bnd.String()...)
		}
		if ctx.Inst != nil && a.Hole == ctx.instVar() {
			return append(b, ctx.Engine.intern.objs.name(ctx.Inst.obj)...)
		}
		return append(b, a.Hole...)
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
		if obj, ok := ctx.Engine.intern.findObj(b.Expr); ok {
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
			ctx.rule = args
		}
	},
	// example(fact...): count one successful rule check (§9
	// z-statistic numerator input e).
	"example": func(ctx *actionCtx, args []pattern.Arg) {
		ctx.Engine.countRule(ctx.ruleFact(args), true)
	},
	// violation(fact...): count one rule violation (c).
	"violation": func(ctx *actionCtx, args []pattern.Arg) {
		ctx.Engine.countRule(ctx.ruleFact(args), false)
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
			ctx.Inst.trace = ctx.Engine.push(ctx.Inst.trace, traceNote, ctx.Point, ctx.format(args), "")
		}
	},
}

// ruleFact renders the rule fact of example()/violation() into the
// context's buffer: the arguments joined by ':', or without arguments
// the transition's rule() fact when that is not empty, else the
// checker's name.
func (ctx *actionCtx) ruleFact(args []pattern.Arg) []byte {
	ruled := len(args) == 0
	if ruled {
		args = ctx.rule
	}
	b := ctx.buf[:0]
	for i, a := range args {
		if i > 0 {
			b = append(b, ':')
		}
		b = ctx.appendArg(b, a)
	}
	if ruled && len(b) == 0 {
		b = append(b, ctx.Engine.Checker.Name...)
	}
	ctx.buf = b
	return b
}

// ruleKey is the rule fact a report of this transition is grouped by:
// ruleFact's without arguments, as a string. A fact that is one string
// literal, as every bundled checker's is, is that literal; another is
// rendered and copied.
func (ctx *actionCtx) ruleKey() string {
	switch r := ctx.rule; {
	case r == nil:
		return ctx.Engine.Checker.Name
	case len(r) == 1 && r[0].IsStr && r[0].Str != "":
		return r[0].Str
	}
	return string(ctx.ruleFact(nil))
}

// format renders the arguments of err() and note(): the first, with
// each %s in it replaced, left to right, by the next of the rest. The
// text an argument puts in is not scanned again.
func (ctx *actionCtx) format(args []pattern.Arg) string {
	if len(args) == 1 && args[0].IsStr {
		return args[0].Str
	}
	b := ctx.appendArg(ctx.buf[:0], args[0])
	n := len(b)
	// The template stays readable where it is when b grows: append
	// copies, it never writes the array it leaves.
	tmpl, rest := b[:n:n], args[1:]
	for len(rest) > 0 {
		i := bytes.Index(tmpl, directive)
		if i < 0 {
			break
		}
		b = append(b, tmpl[:i]...)
		b = ctx.appendArg(b, rest[0])
		tmpl, rest = tmpl[i+len(directive):], rest[1:]
	}
	b = append(b, tmpl...)
	ctx.buf = b
	return string(b[n:])
}

// directive is the one substitution err() and note() know.
var directive = []byte("%s")

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
