package core

import (
	"sort"

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
	if en.Opts.MaxCallDepth > 0 && st.callDepth >= en.Opts.MaxCallDepth {
		return false
	}
	callee, maps := site.Callee, site.Args

	// --- Refine (§6.1) ---
	refined := &SM{GState: st.sm.GState}
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
			}
		default:
			mapped, ok := refineObj(inst.ObjExpr, maps)
			if ok && !leftoverCallerLocals(mapped, st.fn.Graph.Locals, maps) {
				cp.ObjExpr = mapped
				cp.Obj = cc.ExprKey(mapped)
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
	summary := calleeFi.summaryOf(callee.Graph)
	inTuples := refined.Tuples()
	var missing []Tuple
	if en.Opts.FunctionCache {
		for _, t := range inTuples {
			if summary.sfxTrans.hasFrom(t) {
				en.Stats.FuncCacheHits++
			} else {
				missing = append(missing, t)
			}
		}
	} else {
		missing = inTuples
	}

	recursing := false
	for _, f := range st.callStack {
		if f == callee {
			recursing = true
			break
		}
	}
	if len(missing) > 0 {
		if recursing {
			// §7: "our algorithm assumes that the existing function
			// summary is sufficient" inside recursive loops.
			en.Stats.RecursionCuts++
		} else {
			en.Stats.FuncFollows++
			en.Stats.Analyses[callee.Name]++
			calleeFi.Analyses++
			missIDs := map[tid]bool{}
			for _, t := range missing {
				missIDs[en.intern.id(t)] = true
			}
			calleeSM := &SM{GState: refined.GState}
			for _, in := range refined.Active {
				if in.Inactive || missIDs[en.intern.id(instTuple(refined.GState, in))] {
					calleeSM.Active = append(calleeSM.Active, in.clone())
				}
			}
			cst := &pathState{
				sm:        calleeSM,
				env:       calleeFi.terms.NewEnv(),
				fn:        callee,
				callStack: append(append([]*prog.Function(nil), st.callStack...), callee),
				callDepth: st.callDepth + 1,
				pathClass: st.pathClass,
			}
			en.traverseBlock(cst, callee.Graph.Entry)
		}
	}

	// --- Apply summary edges (§6.3 steps 3-5) ---
	entryBI := calleeFi.info(callee.Graph.Entry)
	parts := en.partitionResults(refined, summary, entryBI, inTuples)

	// FPP: values reachable by the callee through pointers may change.
	for _, a := range call.Args {
		if u, ok := a.(*cc.UnaryExpr); ok && u.Op == cc.TokAmp {
			if id, ok := u.X.(*cc.Ident); ok {
				if en.Opts.FPP && st.env != nil {
					st.env.Havoc(id.Name)
				}
				st.plog = st.plog.push(pathEvent{kind: evHavoc, pos: posOf(a), expr: id})
			}
		}
	}

	if len(parts) == 0 {
		// No summary information (e.g. recursion with an empty
		// summary): leave the caller state unchanged (§7 unsoundness).
		return false
	}

	// --- Restore (§6.1) and continue (§6.3 step 6) ---
	for pi, part := range parts {
		ns := st
		nrec := rec
		if len(parts) > 1 {
			ns = st.cloneFor()
			nrec = rec.clone()
		}
		restored := &SM{GState: part.gstate}
		for _, t := range part.tuples {
			if in := en.restoreInstance(t, maps, st.fn, callee); in != nil {
				restored.Active = append(restored.Active, in)
			}
		}
		for _, inst := range saved {
			restoredInst := inst
			if len(parts) > 1 {
				restoredInst = inst.clone()
			}
			restored.Active = append(restored.Active, restoredInst)
		}
		// Reactivate file-scope statics that are back in scope.
		for _, in := range restored.Active {
			if in.Static {
				in.Inactive = in.HomeFile != st.fn.Decl.File
			}
		}
		ns.sm = restored
		if len(parts) > 1 {
			en.runFrom(ns, b, bi, nrec, idx+1)
			if pi == len(parts)-1 {
				return true
			}
		}
	}
	return len(parts) > 1
}

// partition is one disjoint exit state: a global state value plus at
// most one tuple per program object (§6.3 step 5).
type partition struct {
	gstate string
	tuples []Tuple
}

// partitionResults computes the edges applicable to the current state
// and partitions them into disjoint exit states. entryBI is the
// callee entry block's own summary: its transition edges record which
// in-tuples have ever been traversed, which distinguishes "the callee
// stopped this object on every path" (edges ending in stop are omitted
// from function summaries, §6.3) from "the callee was never analyzed
// in this state" (possible under recursion, §7).
func (en *Engine) partitionResults(refined *SM, summary, entryBI *blockInfo, inTuples []Tuple) []partition {
	// The exit global states come from the placeholder suffix edges;
	// their absence means the callee has no summary at all in this
	// state.
	ix := en.intern
	gstates := map[string]bool{}
	for _, e := range summary.sfxTrans.from(placeholderTuple(refined.GState)) {
		gstates[ix.tups[e.to].g] = true
	}
	if len(gstates) == 0 {
		return nil
	}

	// outsByG[gstate][objKey] = distinct out tuples, by interned id.
	type out struct {
		id tid
		t  Tuple
	}
	outsByG := map[string]map[string][]out{}
	record := func(id tid, t Tuple) {
		g := t.G
		gstates[g] = true
		if t.IsPlaceholder() {
			return
		}
		m := outsByG[g]
		if m == nil {
			m = map[string][]out{}
			outsByG[g] = m
		}
		key := instKey(t.Var, t.Obj)
		for _, prev := range m[key] {
			if prev.id == id {
				return
			}
		}
		m[key] = append(m[key], out{id, t})
	}

	for _, in := range inTuples {
		if in.IsPlaceholder() {
			continue
		}
		outs := summary.sfxTrans.from(in)
		if len(outs) == 0 {
			if !entryBI.trans.hasFrom(in) {
				// Never traversed in this state (incomplete recursive
				// summary): pass the instance through unchanged (§7).
				record(ix.id(in), in)
			}
			// Else: every path stopped the object — it drops out of
			// the outgoing state (§6.3).
			continue
		}
		for _, e := range outs {
			record(e.to, ix.toTuple(e))
		}
	}
	// Add edges: apply when the object has no instance at entry
	// ("(s, v:t→unknown) ... the edge only applies when we know
	// nothing about t at the entry").
	have := map[string]bool{}
	for _, in := range refined.Active {
		if !in.Inactive {
			have[instKey(in.Var, in.Obj)] = true
		}
	}
	for _, e := range summary.sfxAdds.all() {
		from := &ix.tups[e.from]
		if from.g != refined.GState || have[instKey(from.varName, from.obj)] {
			continue
		}
		record(e.to, ix.toTuple(e))
	}

	// Build partitions: group by out gstate; within a group, take the
	// cartesian product over objects with multiple possible values.
	var gs []string
	for g := range gstates {
		gs = append(gs, g)
	}
	sort.Strings(gs)

	var parts []partition
	for _, g := range gs {
		m := outsByG[g]
		var keys []string
		for k := range m {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		combos := []partition{{gstate: g}}
		for _, k := range keys {
			outs := m[k]
			var next []partition
			for _, c := range combos {
				for _, o := range outs {
					nc := partition{gstate: g, tuples: append(append([]Tuple(nil), c.tuples...), o.t)}
					next = append(next, nc)
					if len(next) >= en.Opts.MaxPartitions {
						break
					}
				}
				if len(next) >= en.Opts.MaxPartitions {
					break
				}
			}
			combos = next
		}
		parts = append(parts, combos...)
		if len(parts) >= en.Opts.MaxPartitions {
			parts = parts[:en.Opts.MaxPartitions]
			break
		}
	}
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
	inst := &Instance{
		Var:     t.Var,
		Obj:     cc.ExprKey(objExpr),
		ObjExpr: objExpr,
		Val:     t.Val,
		Data:    t.Data,
	}
	if prov := t.Prov; prov != nil {
		inst.StartPos = prov.StartPos
		inst.StartFunc = prov.StartFunc
		inst.Conds = prov.Conds
		inst.SynDepth = prov.SynDepth
		inst.CallDepth = prov.CallDepth
		inst.Data = prov.Data
		inst.Val = prov.Val
		inst.trace = prov.trace
	}
	// The tuple's recorded value wins over provenance (the instance
	// snapshot may predate later transitions).
	inst.Val = t.Val
	inst.Data = t.Data
	st := &pathState{fn: caller}
	en.classifyScope(st, inst)
	return inst
}

// BlockFor finds a block by comment prefix (test helper for Figure 5
// style assertions).
func (en *Engine) BlockFor(fnName, commentPrefix string) *cfg.Block {
	fn := en.Prog.Lookup(fnName)
	if fn == nil {
		return nil
	}
	for _, b := range fn.Graph.Blocks {
		if len(b.Comment) >= len(commentPrefix) && b.Comment[:len(commentPrefix)] == commentPrefix {
			return b
		}
	}
	return nil
}
