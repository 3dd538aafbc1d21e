package core

import (
	"fmt"
	"math"
	"slices"
	"strings"

	"repro/internal/cc"
	"repro/internal/cfg"
	"repro/internal/prog"
)

// This file implements the context-sensitive, top-down interprocedural
// analysis of §6: following calls through the supergraph, refining and
// restoring extension state across the boundary (§6.1, Table 2), and
// memoizing whole-function effects in function summaries (§6.2-§6.3).

// followCall handles a call program point. It returns true when the
// traversal forked into multiple continuations (disjoint exit-state
// partitions, §6.3 step 5-6) and the caller's loop must stop.
func (en *Engine) followCall(st *pathState, b *cfg.Block, bi *blockInfo, rec *blockRec, call *cc.CallExpr, idx int) bool {
	site := st.fn.Site(b, idx)
	if site == nil || site.Callee.Graph == nil {
		// "By default, if the function's CFG is not available, the
		// system silently continues to the next CFG node."
		return false
	}
	callee, maps := site.Callee, site.Args
	if st.callDepth >= maxCallDepth {
		en.noteDegrade(DegradeCallDepth, en.curRoot, callee.Name)
		return false
	}

	// --- Refine (§6.1) ---
	refined := SM{g: st.sm.g}
	var saved []*Instance
	for _, inst := range st.sm.Active {
		cp := inst.clone()
		switch {
		case inst.GlobalObj:
			refined.Active = append(refined.Active, cp)
		case inst.Static:
			// File-scope variables pass when the callee is in their
			// file; otherwise they are held inactive at the boundary
			// and restored on return (§6.1; we approximate the
			// reenter-scope-down-the-call-chain case by holding them
			// with the caller's saved state).
			if callee.Decl.File == inst.HomeFile {
				cp.Inactive = false
				refined.Active = append(refined.Active, cp)
			} else {
				saved = append(saved, inst)
				en.Stats.StaticsHeld++
			}
		default:
			mapped, ok := refineObj(inst.ObjExpr, maps)
			if ok && !leftoverCallerLocals(mapped, st.fn.Graph.Locals, maps) {
				cp.ObjExpr = mapped
				cp.obj = en.intern.objID(mapped)
				refined.Active = append(refined.Active, cp)
			} else if !mentionsLocals(inst.ObjExpr, st.fn) {
				// Mentions no caller locals: passes through (unknown
				// or extern objects).
				refined.Active = append(refined.Active, cp)
			} else {
				// "All state attached to variables and expressions
				// that are local to the caller is saved at the call
				// boundary" (§6.1).
				saved = append(saved, inst)
			}
		}
	}

	// --- Function summary check (§6.2) ---
	calleeFi := en.funcInfo(callee)
	// The function summary is the entry block's suffix summary.
	entry := calleeFi.info(callee.Graph.Entry)
	// covered: the summary already has an edge out of the tuple.
	covered := func(t Tuple) bool {
		return en.Opts.FunctionCache && entry.sfxTrans.hasFrom(en.intern, t)
	}
	missing, live := false, false
	for _, in := range refined.Active {
		if in.Inactive {
			continue
		}
		live = true
		if covered(instTuple(refined.g, in)) {
			en.Stats.FuncCacheHits++
		} else {
			missing = true
		}
	}
	if !live {
		if covered(placeholderTuple(refined.g)) {
			en.Stats.FuncCacheHits++
		} else {
			missing = true
		}
	}

	if missing {
		if slices.Contains(en.callStack[:st.callDepth+1], callee) {
			// §7: "our algorithm assumes that the existing function
			// summary is sufficient" inside recursive loops.
			en.Stats.RecursionCuts++
		} else {
			en.Stats.FuncFollows++
			en.Stats.Analyses[callee.Name]++
			calleeFi.Analyses++
			// The callee's frame of the stacks begins above the caller's.
			en.callStack = append(en.callStack[:st.callDepth+1], callee)
			cst := en.enter(st, callee, refined.g)
			for _, in := range refined.Active {
				if in.Inactive || !covered(instTuple(refined.g, in)) {
					cst.sm.Active = append(cst.sm.Active, in.clone())
				}
			}
			en.traverseBlock(cst, callee.Graph.Entry)
			en.release(cst)
		}
	}

	// --- Apply summary edges (§6.3 steps 3-5) ---
	parts := en.partitionResults(&refined, callee, entry)

	// FPP: values reachable by the callee through pointers may change.
	if en.Opts.FPP {
		for _, a := range call.Args {
			if u, ok := a.(*cc.UnaryExpr); ok && u.Op == cc.TokAmp {
				if id, ok := u.X.(*cc.Ident); ok {
					st.env.Havoc(id.Name)
				}
			}
		}
	}

	if len(parts) == 0 {
		// No summary information (e.g. recursion with an empty
		// summary): leave the caller state unchanged (§7 unsoundness).
		return false
	}
	forked := len(parts) > 1
	if forked {
		// Each continuation below re-enters runFrom, and with it this
		// function and the engine's partition buffer.
		parts = slices.Clone(parts)
	}

	// --- Restore (§6.1) and continue (§6.3 step 6) ---
	for _, part := range parts {
		ns, nrec := st, rec
		if forked {
			ns, nrec = en.split(st), rec.clone()
		}
		// The state's own instance array is free to refill: refined and
		// saved hold what is still needed of it (a split's is empty).
		restored := SM{g: part.gstate, Active: ns.sm.Active[:0]}
		for _, t := range part.tuples {
			if in := en.restoreInstance(t, maps, st.fn, callee); in != nil {
				restored.Active = append(restored.Active, in)
			}
		}
		for _, inst := range saved {
			if forked {
				inst = inst.clone()
			}
			restored.Active = append(restored.Active, inst)
		}
		// Reactivate file-scope statics that are back in scope.
		for _, in := range restored.Active {
			if in.Static {
				in.Inactive = in.HomeFile != st.fn.Decl.File
			}
		}
		ns.sm = restored
		if forked {
			en.runFrom(ns, b, bi, nrec, idx+1)
			en.release(ns)
		}
	}
	return forked
}

// partition is one disjoint exit state: a global state value plus at
// most one tuple per program object (§6.3 step 5).
type partition struct {
	gstate int32
	tuples []Tuple
}

// outTuple is one distinct summary out-tuple, with its interned id.
type outTuple struct {
	id tid
	t  Tuple
}

// cmpG orders global states by name.
func (in *interner) cmpG(a, b int32) int { return strings.Compare(in.vals.name(a), in.vals.name(b)) }

// cmpOut orders out-tuples by exit global state, then by object in the
// order of the objects' "var|obj" renderings.
func (in *interner) cmpOut(a, b outTuple) int {
	if c := in.cmpG(a.t.g, b.t.g); c != 0 {
		return c
	}
	if a.t.v == b.t.v {
		return strings.Compare(in.objs.name(a.t.obj), in.objs.name(b.t.obj))
	}
	return strings.Compare(in.vars.name(a.t.v)+"|"+in.objs.name(a.t.obj), in.vars.name(b.t.v)+"|"+in.objs.name(b.t.obj))
}

// partitionResults computes the edges applicable to the current state
// and partitions them into disjoint exit states. entry is the callee's
// entry block: its suffix summary is the function summary, and its own
// block summary's transition edges record which in-tuples have ever
// been traversed, which distinguishes "the callee stopped this object
// on every path" (edges ending in stop are omitted from function
// summaries, §6.3) from "the callee was never analyzed in this state"
// (possible under recursion, §7). The result is the engine's partition
// buffer: it is valid until the next call.
func (en *Engine) partitionResults(refined *SM, callee *prog.Function, entry *blockInfo) []partition {
	// The exit global states come from the placeholder suffix edges;
	// their absence means the callee has no summary at all in this
	// state.
	ix := en.intern
	var gsBuf [4]int32
	gs := gsBuf[:0]
	addG := func(g int32) {
		if !slices.Contains(gs, g) {
			gs = append(gs, g)
		}
	}
	for _, e := range entry.sfxTrans.from(ix, placeholderTuple(refined.g)) {
		addG(ix.tups[e.to].g)
	}
	if len(gs) == 0 {
		return nil
	}

	// outs collects the distinct out tuples; an id names its exit state
	// and object too.
	outs := en.outs[:0]
	record := func(id tid, t Tuple) {
		addG(t.g)
		if t.obj == 0 || slices.ContainsFunc(outs, func(o outTuple) bool { return o.id == id }) {
			return
		}
		outs = append(outs, outTuple{id, t})
	}
	for _, inst := range refined.Active {
		if inst.Inactive {
			continue
		}
		in := instTuple(refined.g, inst)
		edges := entry.sfxTrans.from(ix, in)
		if len(edges) == 0 {
			if !entry.trans.hasFrom(ix, in) {
				// Never traversed in this state (incomplete recursive
				// summary): pass the instance through unchanged (§7).
				record(ix.id(in), in)
			}
			// Else: every path stopped the object — it drops out of
			// the outgoing state (§6.3).
			continue
		}
		for _, e := range edges {
			record(e.to, ix.toTuple(e))
		}
	}
	// Add edges: apply when the object has no instance at entry
	// ("(s, v:t→unknown) ... the edge only applies when we know
	// nothing about t at the entry").
	for _, e := range entry.sfxAdds.all() {
		from := &ix.tups[e.from]
		if from.g != refined.g || refined.lastLive(from.v, from.obj) != nil {
			continue
		}
		record(e.to, ix.toTuple(e))
	}
	en.outs = outs

	// Build partitions: group by out gstate; within a group, take the
	// cartesian product over objects with multiple possible values.
	// Past maxPartitions the rest are dropped; states counts them all
	// (saturating per group) for the degrade record.
	slices.SortFunc(gs, ix.cmpG)
	slices.SortStableFunc(outs, ix.cmpOut)
	parts := en.parts[:0]
	states := 0
	for _, g := range gs {
		first := len(parts)
		if first < maxPartitions {
			parts = append(parts, partition{gstate: g})
		}
		inG := 1
		for len(outs) > 0 && outs[0].t.g == g {
			// The out tuples of one object: each combination so far
			// continues with each of them.
			n := 1
			for n < len(outs) && outs[n].t.g == g && sameObj(&outs[n].t, outs[0].t.v, outs[0].t.obj) {
				n++
			}
			inG = min(inG*n, math.MaxInt32)
			var next []partition
			for _, c := range parts[first:] {
				for _, o := range outs[:n] {
					if len(next) < maxPartitions {
						next = append(next, partition{gstate: g, tuples: append(slices.Clone(c.tuples), o.t)})
					}
				}
			}
			parts = append(parts[:first], next...)
			outs = outs[n:]
		}
		states += inG
	}
	parts = parts[:min(len(parts), maxPartitions)]
	if states > len(parts) {
		en.noteDegrade(DegradePartitions, en.curRoot,
			fmt.Sprintf("%s: %d exit states, continued from %d", callee.Name, states, len(parts)))
	}
	en.parts = parts
	return parts
}

// restoreInstance rebuilds a caller-scope instance from a callee
// summary out-tuple (§6.1 restore; Table 2 read right-to-left).
func (en *Engine) restoreInstance(t Tuple, maps []prog.ArgMap, caller, callee *prog.Function) *Instance {
	if t.ObjExpr == nil {
		return nil
	}
	objExpr := restoreObj(t.ObjExpr, maps)
	// Formals were substituted away by restoreObj; any remaining
	// mention of a callee non-parameter local (one that is not also a
	// caller local's name) means the object died with the callee frame.
	died := false
	cc.WalkExpr(objExpr, func(sub cc.Expr) bool {
		if id, ok := sub.(*cc.Ident); ok && callee.NonParamLocals[id.Name] && !caller.Graph.Locals[id.Name] {
			died = true
		}
		return !died
	})
	if died {
		return nil
	}
	// The tuple's recorded value and data win over provenance (the
	// instance snapshot may predate later transitions).
	inst := &Instance{
		v:       t.v,
		obj:     en.intern.objID(objExpr),
		ObjExpr: objExpr,
		val:     t.val,
		Data:    t.data,
	}
	if prov := t.Prov; prov != nil {
		inst.StartPos = prov.StartPos
		inst.StartFunc = prov.StartFunc
		inst.Conds = prov.Conds
		inst.SynDepth = prov.SynDepth
		inst.CallDepth = prov.CallDepth
		inst.trace = prov.trace
	}
	en.classifyScope(caller, inst)
	return inst
}
