package core

import (
	"slices"

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
	locals := st.fn.Graph.Locals
	ctx := en.matchCtx(st, nil, nil, true, false)

	en.snapshot = append(en.snapshot[:0], st.sm.Active...)
	for _, inst := range en.snapshot {
		if inst.Inactive || !en.stillActive(st, inst) {
			continue
		}
		leavesScope := isRoot || mentions(inst.ObjExpr, func(id *cc.Ident) bool { return locals.HasNonParam(id.Name) })
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
		r.Conditionals = int(in.Conds)
		r.SynonymDepth = int(in.SynDepth)
		r.Interprocedural = in.StartFunc != st.fn.Name
		if r.Interprocedural {
			d := st.callDepth - int(in.CallDepth)
			if d < 0 {
				d = -d
			}
			if d == 0 {
				d = 1
			}
			r.CallChain = d
		}
		r.Vars = en.report.identsOf(in.ObjExpr)
		r.Trace = en.report.trace(in.trace, ctx.Pos, msg)
	}
	en.Reports.Add(r)
}

// reportScratch is the engine's work memory for the report emitReport
// keeps, so that what the report holds is allocated at its exact size:
// the trace's cells oldest first, the trace's text and where each of
// its lines ends, and the object's identifier names.
type reportScratch struct {
	cells []*traceList
	text  []byte
	ends  []int
	names []string
}

// trace renders a kept report's why-trace: each event's line, oldest
// first, then the report's own "pos: msg" line. The lines are rendered
// into the scratch and converted to one string, which the returned
// lines are substrings of.
func (s *reportScratch) trace(t *traceList, pos cc.Pos, msg string) []string {
	cells := s.cells[:0]
	for c := t; c != nil; c = c.prev {
		cells = append(cells, c)
	}
	text, ends := s.text[:0], s.ends[:0]
	for i := len(cells) - 1; i >= 0; i-- {
		text = cells[i].render(text)
		ends = append(ends, len(text))
	}
	text = append(append(cc.AppendPos(text, pos), ": "...), msg...)
	ends = append(ends, len(text))
	all := string(text)
	lines := make([]string, len(ends))
	lo := 0
	for i, hi := range ends {
		lines[i], lo = all[lo:hi], hi
	}
	clear(cells)
	s.cells, s.text, s.ends = cells[:0], text[:0], ends[:0]
	return lines
}

// identsOf lists the identifier names e mentions, sorted, each once;
// nil when it mentions none.
func (s *reportScratch) identsOf(e cc.Expr) []string {
	names := s.names[:0]
	cc.WalkExpr(e, func(sub cc.Expr) bool {
		if id, ok := sub.(*cc.Ident); ok {
			names = append(names, id.Name)
		}
		return true
	})
	slices.Sort(names)
	names = slices.Compact(names)
	var out []string
	if len(names) > 0 {
		out = slices.Clone(names)
	}
	clear(names)
	s.names = names[:0]
	return out
}
