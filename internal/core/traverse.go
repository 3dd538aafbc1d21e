package core

import (
	"repro/internal/cc"
	"repro/internal/cfg"
	"repro/internal/fpp"
)

// This file is the traversal of Figure 4: the caching DFS over a
// function's blocks, its summary edges at block end, and the split at a
// branch (§2.2, §5.2, §8).

// traverseBlock is the heart of Figure 4: the caching DFS. It is also
// the governance choke point: cancellation and budget checks gate
// every block so a wedged traversal stops within one poll interval.
func (en *Engine) traverseBlock(st *pathState, b *cfg.Block) {
	if en.govern && (en.halted() || en.overBudget(st, b)) {
		return
	}
	en.Stats.Blocks++
	bi := en.funcInfo(st.fn).info(b)
	if en.traversed != nil && st.btTop > st.btBase {
		en.traversed(en.backtrace[st.btTop-1].block, b)
	}

	// Block-level cache check (§5.2): drop every state tuple already
	// covered by the block summary; abort the path when nothing
	// remains. Coverage is refined by the FPP fact fingerprint so that
	// paths with different branch facts are not conflated (see
	// blockInfo.coversUnder).
	fp := noFP
	if en.Opts.FPP {
		fp = st.env.Fingerprint()
	}
	// The tuple of every live instance the cache does not cover goes on
	// the engine's tuple stack, with the id the probe found: from base
	// up, the stack is the block's entry list (enter). The
	// survivors are compacted into the frame's own array (DESIGN.md §5):
	// nothing reads a frame's instances after traverseBlock returns, so a
	// full hit may leave the array scrambled.
	base := len(en.tuples)
	cache := en.Opts.BlockCache
	allHit, live := cache, false
	keep := st.sm.Active[:0]
	for _, in := range st.sm.Active {
		if in.Inactive {
			keep = append(keep, in)
			continue
		}
		live = true
		t := instTuple(st.sm.g, in)
		if cache && bi.coversUnder(&t, fp) {
			en.Stats.CacheHits++
			continue
		}
		allHit = false
		keep = append(keep, in)
		en.tuples = enter(en.tuples, base, t)
	}
	st.sm.Active = keep
	if cache && !live {
		// The placeholder is the extension state.
		pt := placeholderTuple(st.sm.g)
		if allHit = bi.coversUnder(&pt, fp); allHit {
			en.Stats.CacheHits++
		}
	}
	if allHit {
		relax(en.backtrace[st.btBase:st.btTop], bi, false, st.fn.Graph.Locals)
		return
	}
	if cache {
		en.Stats.CacheMisses++
	}

	en.backtrace = append(en.backtrace[:st.btTop], traceEntry{block: b, info: bi})
	st.btTop++
	var rec blockRec
	rec.start(st.sm.g, fp, en.tuples, base)

	if b.Exit {
		en.endOfPath(st, &rec)
		en.finishBlock(st, b, bi, &rec)
	} else {
		en.runFrom(st, b, bi, &rec, 0)
	}
	// Every traversal below this one has popped its own entries.
	en.popTuples(base)
}

// runFrom processes block points starting at index idx, then finishes
// the block. Mid-block call returns with multiple disjoint exit states
// fork here: each partition continues the remaining points
// independently (§6.3 step 6).
func (en *Engine) runFrom(st *pathState, b *cfg.Block, bi *blockInfo, rec *blockRec, idx int) {
	for i := idx; i < len(b.Points); i++ {
		pt := b.Points[i]
		en.Stats.Points++
		fired := en.applyExtension(st, b, rec, pt, false)
		if st.killPath {
			en.finishBlock(st, b, bi, rec)
			return
		}
		switch x := pt.(type) {
		case *cc.AssignExpr:
			en.handleAssign(st, rec, x, pt)
		case *cc.UnaryExpr:
			if x.Op == cc.TokInc || x.Op == cc.TokDec {
				en.handleMutation(st, rec, x.X)
			}
		case *cc.CallExpr:
			if !fired && en.Opts.Interprocedural {
				if forked := en.followCall(st, b, bi, rec, x, i); forked {
					return
				}
			}
		}
	}
	// Statement point: a block ending in "return [expr];" offers one
	// synthetic point where return-statement patterns match (§4).
	if b.IsReturn {
		en.Stats.Points++
		en.applyExtension(st, b, rec, b.ReturnX, true)
		if st.killPath {
			en.finishBlock(st, b, bi, rec)
			return
		}
	}
	en.finishBlock(st, b, bi, rec)
}

// finishBlock records the block's summary edges (§5.2) and descends
// into the successors (or ends the path).
func (en *Engine) finishBlock(st *pathState, b *cfg.Block, bi *blockInfo, rec *blockRec) {
	gEnd := st.sm.g
	// Global-instance edge, recorded on every traversal (§6.2 needs it
	// to relax add edges through gstate-preserving blocks). It joins
	// the cache-relevant transition edges only when the placeholder
	// actually was the extension state.
	fi := bi.fi
	entryPT, endPT := placeholderTuple(rec.entryG), placeholderTuple(gEnd)
	ghost := fi.in.edge(&entryPT, &endPT)
	bi.gstate.add(fi, ghost)
	if len(rec.entry) == 0 {
		en.noteSeen(bi, &entryPT, rec.fp)
		bi.trans.add(fi, ghost)
	}
	// Transition edges for each entry tuple ("Each state tuple that
	// reaches a block generates exactly one transition edge, where the
	// transition can be the identity").
	for i := range rec.entry {
		from := &rec.entry[i]
		en.noteSeen(bi, from, rec.fp)
		// Where the instance went: killed, still here, or out of scope
		// some other way (e.g. dropped at a call boundary) — a stop edge.
		to := *from
		to.g, to.val, to.id = gEnd, symStop, noTID
		if stop := lastOf(rec.kills, from.v, from.obj); stop != nil {
			to = *stop
		} else if inst := st.sm.lastLive(from.v, from.obj); inst != nil {
			to = instTuple(gEnd, inst)
		}
		en.addEdge(fi, &bi.trans, from, &to)
	}
	// Add edges for instances created during the block.
	for _, inst := range st.sm.Active {
		if inst.Inactive || lastOf(rec.entry, inst.v, inst.obj) != nil || st.sm.lastLive(inst.v, inst.obj) != inst {
			continue
		}
		from, to := unknownTuple(rec.entryG, inst.v, inst.obj), instTuple(gEnd, inst)
		en.addEdge(fi, &bi.adds, &from, &to)
	}
	for i := range rec.kills {
		stop := &rec.kills[i]
		if lastOf(rec.entry, stop.v, stop.obj) != nil {
			continue
		}
		from := unknownTuple(rec.entryG, stop.v, stop.obj)
		en.addEdge(fi, &bi.adds, &from, stop)
	}

	if st.killPath || len(b.Succs) == 0 {
		en.endPath(st)
		return
	}
	en.descend(st, b)
}

// endPath finishes a path: relax suffix summaries backwards along the
// backtrace (Figure 6).
func (en *Engine) endPath(st *pathState) {
	en.Stats.Paths++
	if st.btTop == st.btBase {
		return
	}
	last := en.backtrace[st.btTop-1]
	relax(en.backtrace[st.btBase:st.btTop-1], last.info, last.block.Exit && !st.killPath,
		st.fn.Graph.Locals)
}

// descend explores the block's successors (§2.2 step 4). Only a branch
// forks (cfg's TestOnlyBranchesFork): any other block goes on to its one
// successor on st's own path. Each successor of a branch gets a split of
// the extension state holding its edge's fact, unless false-path
// pruning (§8) shows the edge infeasible, and resolves the pending
// path-specific transitions for its direction (§3.2).
func (en *Engine) descend(st *pathState, b *cfg.Block) {
	if b.Cond == nil && b.Switch == nil {
		en.applyPending(st, true)
		en.traverseBlock(st, b.Succs[0].To)
		return
	}
	verdict := fpp.Unknown
	if en.Opts.FPP && b.Cond != nil {
		verdict = st.env.EvalCond(b.Cond)
	}
	for _, e := range b.Succs {
		// A switch's edges resolve pending transitions as taken.
		taken := e.Kind != cfg.EdgeFalse
		if verdict == fpp.MustTrue && !taken || verdict == fpp.MustFalse && taken {
			en.Stats.PrunedPaths++
			continue
		}
		// The last successor is split too: a function's provenance table
		// holds the end instance of its summary edges (funcInfo.provs) and
		// restore reads its Conds and trace later, so an instance that
		// lived on past its split would change ranking input.
		ns := en.split(st)
		if en.Opts.FPP {
			assume(&ns.env, b, e)
			if ns.env.Contradicted() {
				en.Stats.PrunedPaths++
				en.release(ns)
				continue
			}
		}
		en.cloneActive(&ns.sm, &st.sm)
		en.noteConditional(ns)
		en.applyPending(ns, taken)
		en.traverseBlock(ns, e.To)
		en.release(ns)
	}
}

// assume adds to env the fact a path learns by leaving b along e: the
// condition's truth on an if's edge, the tag's value on a constant
// case, and on a switch's default edge that no constant case matched.
func assume(env *fpp.Env, b *cfg.Block, e cfg.Edge) {
	switch {
	case b.Cond != nil:
		env.AssumeCond(b.Cond, e.Kind != cfg.EdgeFalse)
	case e.Kind == cfg.EdgeCase && e.CaseConst:
		env.AssumeCase(b.Switch, e.CaseVal)
	case e.Kind == cfg.EdgeDefault:
		for _, c := range b.Succs {
			if c.Kind == cfg.EdgeCase && c.CaseConst {
				env.AssumeNotCase(b.Switch, c.CaseVal)
			}
		}
	}
}

// noteConditional bumps the conditionals-crossed counter on every
// live instance (ranking criterion 2, §9).
func (en *Engine) noteConditional(st *pathState) {
	for _, in := range st.sm.Active {
		in.Conds++
	}
}

// applyPending resolves path-specific transitions for the chosen
// branch direction (§3.2).
func (en *Engine) applyPending(st *pathState, taken bool) {
	for _, p := range st.pending {
		eff := taken
		if p.neg {
			eff = !eff
		}
		ref, dest := p.r.FalseDest, p.r.falseDest
		if eff {
			ref, dest = p.r.TrueDest, p.r.trueDest
		}
		if p.v == 0 {
			// Creation: attach the destination state to the bound
			// object unless the destination is stop.
			if dest.val == symStop || dest.v == 0 {
				continue
			}
			bnd, ok := p.bindings.Get(ref.Var)
			if !ok || bnd.Expr == nil {
				continue
			}
			en.createInstance(st, nil, dest, bnd.Expr, nil)
			continue
		}
		// Instance transition.
		inst := st.sm.Find(p.v, p.obj)
		if inst == nil {
			continue
		}
		if dest.val == symStop {
			en.killInstance(st, nil, inst, true)
		} else {
			oldVal := inst.val
			for _, m := range st.sm.GroupMembers(inst) {
				if m.val == oldVal {
					m.val = dest.val
				}
			}
		}
	}
	// Resolving a transition adds none, so the frame's array is emptied
	// in place.
	st.pending = st.pending[:0]
}
