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
	// callerLocal tells a caller local left in a mapped object from the
	// site's substituted formals, by pointer: a formal named "p" is not
	// a leftover caller local "p".
	callerLocal := func(id *cc.Ident) bool {
		return st.fn.Graph.Locals.Has(id.Name) && !slices.ContainsFunc(maps, func(m prog.ArgMap) bool { return m.Formal == id })
	}
	// The refined copies and the saved instances go on the engine's
	// stacks, above whatever the calls this one is nested in hold there,
	// and are popped when it returns; only a refined instance is cloned.
	rbase, sbase := len(en.refined), len(en.saved)
	for _, inst := range st.sm.Active {
		switch {
		case inst.GlobalObj:
			en.refined = append(en.refined, inst.clone())
		case inst.Static:
			// File-scope variables pass when the callee is in their
			// file; otherwise they are held inactive at the boundary
			// and restored on return (§6.1; we approximate the
			// reenter-scope-down-the-call-chain case by holding them
			// with the caller's saved state).
			if callee.Decl.File == inst.HomeFile {
				cp := inst.clone()
				cp.Inactive = false
				en.refined = append(en.refined, cp)
			} else {
				en.saved = append(en.saved, inst)
				en.Stats.StaticsHeld++
			}
		default:
			mapped, ok := refineObj(inst.ObjExpr, maps)
			if ok && !mentions(mapped, callerLocal) {
				cp := inst.clone()
				cp.ObjExpr = mapped
				cp.obj = en.intern.objID(mapped)
				en.refined = append(en.refined, cp)
			} else if !mentionsLocals(inst.ObjExpr, st.fn) {
				// Mentions no caller locals: passes through (unknown
				// or extern objects).
				en.refined = append(en.refined, inst.clone())
			} else {
				// "All state attached to variables and expressions
				// that are local to the caller is saved at the call
				// boundary" (§6.1).
				en.saved = append(en.saved, inst)
			}
		}
	}
	// A nested call pushes above these two frames and may move the
	// stacks' arrays; the frames stay valid, and their capacity ends
	// where they do.
	rtop, stop := len(en.refined), len(en.saved)
	refined := SM{g: st.sm.g, Active: en.refined[rbase:rtop:rtop]}
	saved := en.saved[sbase:stop:stop]

	// --- Function summary check (§6.2) ---
	calleeFi := en.funcInfo(callee)
	// The function summary is the entry block's suffix summary.
	entry := calleeFi.info(callee.Graph.Entry)
	// covered: the summary already has an edge out of the tuple.
	covered := func(t Tuple) bool {
		return en.Opts.FunctionCache && entry.sfxTrans.hasFrom(&en.intern, &t)
	}
	missing, live := false, false
	hit := func(t Tuple) {
		if !covered(t) {
			missing = true
			return
		}
		en.Stats.FuncCacheHits++
		if en.auditHit != nil {
			en.auditHit(callee, t)
		}
	}
	for _, in := range refined.Active {
		if !in.Inactive {
			live = true
			hit(instTuple(refined.g, in))
		}
	}
	if !live {
		hit(placeholderTuple(refined.g))
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
	// The partitions and their tuples go on the engine's stacks, above
	// whatever this call's block holds there, and are popped once
	// restored.
	pbase, tbase := len(en.parts), len(en.tuples)
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
		en.popInstances(rbase, sbase)
		return false
	}
	forked := len(parts) > 1

	// --- Restore (§6.1) and continue (§6.3 step 6) ---
	// A forked continuation re-enters runFrom and, at its next call, this
	// function, which pushes above this call's partitions: parts stays
	// valid, and its tuples are read by index, since the continuation may
	// move the tuple stack's array. frec, the continuation's record, is
	// declared outside the loop so that it stays on the stack.
	var frec blockRec
	for _, part := range parts {
		ns, nrec := st, rec
		if forked {
			ns, frec = en.split(st), en.fork(rec)
			nrec = &frec
		}
		// The state's own instance array is free to refill: refined and
		// saved hold what is still needed of it (a split's is empty).
		restored := SM{g: part.gstate, Active: ns.sm.Active[:0]}
		for _, t := range en.tuples[part.lo:part.hi] {
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
			en.popTuples(frec.killBase)
			en.release(ns)
		}
	}
	en.parts = en.parts[:pbase]
	en.popTuples(tbase)
	en.popInstances(rbase, sbase)
	return forked
}

// popInstances pops a followCall's frames off the refined and saved
// stacks, dropping their references.
func (en *Engine) popInstances(rbase, sbase int) {
	clear(en.refined[rbase:])
	clear(en.saved[sbase:])
	en.refined, en.saved = en.refined[:rbase], en.saved[:sbase]
}

// partition is one disjoint exit state: a global state value plus at
// most one tuple per program object (§6.3 step 5), the engine's
// en.tuples[lo:hi].
type partition struct {
	gstate int32
	lo, hi int
}

// cmpG orders global states by name.
func (in *interner) cmpG(a, b int32) int { return strings.Compare(in.vals.name(a), in.vals.name(b)) }

// cmpOut orders out-tuples by exit global state, then by object in the
// order of the objects' "var|obj" renderings.
func (in *interner) cmpOut(a, b Tuple) int {
	if c := in.cmpG(a.g, b.g); c != 0 {
		return c
	}
	if a.v == b.v {
		return strings.Compare(in.objs.name(a.obj), in.objs.name(b.obj))
	}
	return strings.Compare(in.vars.name(a.v)+"|"+in.objs.name(a.obj), in.vars.name(b.v)+"|"+in.objs.name(b.obj))
}

// partitionResults computes the edges applicable to the current state
// and partitions them into disjoint exit states. entry is the callee's
// entry block: its suffix summary is the function summary, and its own
// block summary's transition edges record which in-tuples have ever
// been traversed, which distinguishes "the callee stopped this object
// on every path" (edges ending in stop are omitted from function
// summaries, §6.3) from "the callee was never analyzed in this state"
// (possible under recursion, §7). The partitions are pushed on the
// engine's partition stack and their tuples on its tuple stack; the
// result is the pushed frame of the first, for the caller to pop.
func (en *Engine) partitionResults(refined *SM, callee *prog.Function, entry *blockInfo) []partition {
	// The exit global states come from the placeholder suffix edges;
	// their absence means the callee has no summary at all in this
	// state.
	ix := &en.intern
	var gsBuf [4]int32
	gs := gsBuf[:0]
	addG := func(g int32) {
		if !slices.Contains(gs, g) {
			gs = append(gs, g)
		}
	}
	pt := placeholderTuple(refined.g)
	for _, e := range entry.sfxTrans.from(ix, &pt) {
		addG(ix.tups[e.to].g)
	}
	if len(gs) == 0 {
		return nil
	}

	// outs collects the distinct out tuples, each with its id, which
	// names its exit state and object too.
	outs := en.outs[:0]
	fi := entry.fi
	record := func(t Tuple) {
		addG(t.g)
		if t.obj == 0 || slices.ContainsFunc(outs, func(o Tuple) bool { return o.id == t.id }) {
			return
		}
		outs = append(outs, t)
	}
	for _, inst := range refined.Active {
		if inst.Inactive {
			continue
		}
		in := instTuple(refined.g, inst)
		edges := entry.sfxTrans.from(ix, &in)
		if len(edges) == 0 {
			if !entry.trans.hasFrom(ix, &in) {
				// Never traversed in this state (incomplete recursive
				// summary): pass the instance through unchanged (§7).
				ix.idOf(&in)
				record(in)
			}
			// Else: every path stopped the object — it drops out of
			// the outgoing state (§6.3).
			continue
		}
		for _, e := range edges {
			record(fi.toTuple(e))
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
		record(fi.toTuple(e))
	}
	en.outs = outs

	// Build partitions: group by out gstate; within a group, take the
	// cartesian product over objects with multiple possible values, each
	// step building its partitions in the engine's scratch and their
	// tuples above the last step's. Past maxPartitions the rest are
	// dropped; states counts them all (saturating per group) for the
	// degrade record.
	slices.SortFunc(gs, ix.cmpG)
	slices.SortStableFunc(outs, ix.cmpOut)
	base := len(en.parts)
	parts := en.parts
	states := 0
	for _, g := range gs {
		first := len(parts)
		if first-base < maxPartitions {
			top := len(en.tuples)
			parts = append(parts, partition{gstate: g, lo: top, hi: top})
		}
		inG := 1
		for len(outs) > 0 && outs[0].g == g {
			// The out tuples of one object: each combination so far
			// continues with each of them.
			n := 1
			for n < len(outs) && outs[n].g == g && sameObj(&outs[n], outs[0].v, outs[0].obj) {
				n++
			}
			inG = min(inG*n, math.MaxInt32)
			next := en.next[:0]
			for _, c := range parts[first:] {
				for _, o := range outs[:n] {
					if len(next) < maxPartitions {
						lo := len(en.tuples)
						en.tuples = append(append(en.tuples, en.tuples[c.lo:c.hi]...), o)
						next = append(next, partition{gstate: g, lo: lo, hi: len(en.tuples)})
					}
				}
			}
			en.next = next
			parts = append(parts[:first], next...)
			outs = outs[n:]
		}
		states += inG
	}
	parts = parts[:min(len(parts), base+maxPartitions)]
	if states > len(parts)-base {
		en.noteDegrade(DegradePartitions, en.curRoot,
			fmt.Sprintf("%s: %d exit states, continued from %d", callee.Name, states, len(parts)-base))
	}
	en.parts = parts
	return parts[base:]
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
	if mentions(objExpr, func(id *cc.Ident) bool {
		return callee.Graph.Locals.HasNonParam(id.Name) && !caller.Graph.Locals.Has(id.Name)
	}) {
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
