package core

import (
	"fmt"
	"sort"

	"repro/internal/cc"
	"repro/internal/report"
)

// This file fires $end_of_path$ transitions and materializes reports
// (§3.2, §9).

// endOfPath fires $end_of_path$ transitions at the function's exit:
// for instances attached to the function's own (non-parameter) locals
// always, and for everything — including global state — when the root
// path terminates ("when either an instance ... permanently leaves
// scope or when the program terminates").
func (en *Engine) endOfPath(st *pathState, rec *blockRec) {
	isRoot := st.callDepth == 0
	nonParam := st.fn.NonParamLocals
	ctx := en.matchCtx(st, nil, nil, true, false)

	en.snapshot = append(en.snapshot[:0], st.sm.Active...)
	for _, inst := range en.snapshot {
		if inst.Inactive || !en.stillActive(st, inst) {
			continue
		}
		leavesScope := isRoot || mentions(inst.ObjExpr, func(id *cc.Ident) bool { return nonParam[id.Name] })
		if !leavesScope {
			continue
		}
		rules := en.transIdx.at(inst.v, inst.val).rules
		for i := range rules {
			r := &rules[i]
			bnd, ok := r.Pat.Match(ctx, en.priorFor(r.Source.Var, inst))
			if !ok {
				continue
			}
			en.runTransitionActions(st, r.Transition, bnd, nil, inst)
			if r.PathSpecific || r.dest.val == symStop {
				en.killInstance(st, rec, inst, false)
			} else {
				inst.val = r.dest.val
			}
			break
		}
	}
	if isRoot {
		rules := en.transIdx.at(0, st.sm.g).rules
		for i := range rules {
			r := &rules[i]
			bnd, ok := r.Pat.Match(ctx, noBindings)
			if !ok {
				continue
			}
			en.runTransitionActions(st, r.Transition, bnd, nil, nil)
			if !r.PathSpecific && r.dest.v == 0 {
				st.sm.g = r.dest.val
			}
			break
		}
	}
}

// emitReport materializes an err() action into a ranked report. The set
// is asked before anything is built: a duplicate allocates nothing.
func (en *Engine) emitReport(ctx *actionCtx, msg string) {
	st, in := ctx.State, ctx.Inst
	k := report.Key{Pos: ctx.Pos, Func: st.fn.Name, Checker: en.Checker.Name, Msg: msg, Rule: ctx.ruleKey()}
	start := ctx.Pos
	if in != nil {
		start = in.StartPos
		// End-of-path transitions have no program point; anchor the
		// report where tracking began (the unreleased lock site).
		if !k.Pos.IsValid() {
			k.Pos = in.StartPos
		}
	} else if !k.Pos.IsValid() {
		// Global end-of-path reports carry no program point; anchor
		// them at the function so reports from different functions
		// stay distinct.
		k.Pos = st.fn.Decl.P
		start = k.Pos
	}
	if en.Reports.Has(k) {
		return
	}
	r := &report.Report{
		Checker: k.Checker,
		Msg:     k.Msg,
		Pos:     k.Pos,
		Start:   start,
		Func:    k.Func,
		Class:   ctx.Class,
		Rule:    k.Rule,
	}
	if r.Class == report.ClassNone {
		r.Class = st.pathClass
	}
	if in != nil {
		r.Conditionals = in.Conds
		r.SynonymDepth = in.SynDepth
		r.Interprocedural = in.StartFunc != st.fn.Name
		if r.Interprocedural {
			d := st.callDepth - in.CallDepth
			if d < 0 {
				d = -d
			}
			if d == 0 {
				d = 1
			}
			r.CallChain = d
		}
		r.Vars = identsOf(in.ObjExpr)
		r.Trace = append(in.trace.strings(),
			fmt.Sprintf("%s: %s", ctx.Pos, msg))
	}
	en.Reports.Add(r)
}

// identsOf lists the identifier names mentioned by an expression.
func identsOf(e cc.Expr) []string {
	seen := map[string]bool{}
	var out []string
	cc.WalkExpr(e, func(sub cc.Expr) bool {
		if id, ok := sub.(*cc.Ident); ok && !seen[id.Name] {
			seen[id.Name] = true
			out = append(out, id.Name)
		}
		return true
	})
	sort.Strings(out)
	return out
}
