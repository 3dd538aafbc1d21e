package core

import (
	"slices"

	"repro/internal/cc"
	"repro/internal/cfg"
	"repro/internal/metal"
	"repro/internal/pattern"
)

// This file applies the checker at one program point (§2.1, §3.2):
// global-state and variable-specific transitions and their actions.

// matchCtx fills the engine's one pattern-match context for a point and
// returns it. The function's locals and the current block's branch
// condition and returned expression ride along for the callouts that
// read them (the null checker's bare "if (v)", the leak checker's
// "return v"). Every field is written at every point: a call followed
// between two points of a block runs the callee's points through the
// same context, and the caller must not resume on the callee's
// locals or name.
func (en *Engine) matchCtx(st *pathState, b *cfg.Block, pt cc.Expr, endOfPath, returnPoint bool) *pattern.Ctx {
	ctx := &en.ctx
	ctx.Point, ctx.EndOfPath, ctx.ReturnPoint = pt, endOfPath, returnPoint
	ctx.FuncName, ctx.Locals = st.fn.Name, st.fn.Graph.Locals
	ctx.Callouts = en.callouts
	ctx.BranchCond, ctx.ReturnExpr = nil, nil
	if b != nil {
		ctx.BranchCond, ctx.ReturnExpr = b.Cond, b.ReturnX
	}
	return ctx
}

// noBindings is the empty prior of global-state dispatch.
var noBindings pattern.Bindings

// priorFor refills the engine's one prior with {varName: ObjExpr}, the
// binding every match of an instance's transitions starts from, and
// returns it.
func (en *Engine) priorFor(varName string, inst *Instance) pattern.Bindings {
	en.prior[0] = pattern.Bound{Name: varName, Binding: pattern.Binding{Expr: inst.ObjExpr}}
	return en.prior[:]
}

// applyExtension runs the checker at one program point; it reports
// whether any transition matched (used to decide whether to follow a
// call: "The analysis does not follow calls to kfree because the
// extension matches these calls", Figure 5 caption). With returnPoint
// set it is the synthetic-return-point flavor: statement patterns
// like "{ return v }" match there (§4).
func (en *Engine) applyExtension(st *pathState, b *cfg.Block, rec *blockRec, pt cc.Expr, returnPoint bool) bool {
	if n := int64(len(st.sm.Active)); n > 0 {
		en.Stats.InstanceOps += n
		en.rootInstOps += n
	}
	matched := false

	// Global-state transitions (including creation transitions). The
	// pre-filter skips the whole loop when no transition sourced at
	// the current global state can fire anywhere in this block.
	if gs := en.transIdx.at(0, st.sm.g); en.mayFire(st.fn, b, gs) {
		ctx := en.matchCtx(st, b, pt, false, returnPoint)
		for i := range gs.rules {
			r := &gs.rules[i]
			bnd, ok := r.Pat.Match(ctx, noBindings)
			if !ok {
				continue
			}
			if r.PathSpecific {
				creation, cv := r.TrueDest, r.trueDest.v
				if creation.Var == "" {
					creation, cv = r.FalseDest, r.falseDest.v
				}
				if creation.Var != "" {
					if obj, ok := bnd.Get(creation.Var); !ok || obj.Expr == nil || en.tracked(st, cv, obj.Expr) {
						continue
					}
				}
				matched = true
				st.pending = append(st.pending, pendingBranch{
					r: r, bindings: slices.Clone(bnd), neg: polarityOf(b, pt),
				})
				en.runTransitionActions(st, r.Transition, bnd, pt, nil)
				break
			}
			if r.dest.v != 0 {
				// Creation transition: applies only when the object has
				// no live instance ("the edge only applies when we know
				// nothing about t", §5.2).
				objBnd, ok := bnd.Get(r.Dest.Var)
				if !ok || objBnd.Expr == nil {
					continue
				}
				if en.tracked(st, r.dest.v, objBnd.Expr) {
					continue
				}
				matched = true
				var created *Instance
				if r.dest.val != symStop {
					created = en.createInstance(st, rec, r.dest, objBnd.Expr, pt)
				}
				// Actions on a creation transition see the new instance
				// (so note()/incr() initialize its trace and data).
				en.runTransitionActions(st, r.Transition, bnd, pt, created)
				break
			}
			// Pure global-state transition.
			matched = true
			st.sm.g = r.dest.val
			en.runTransitionActions(st, r.Transition, bnd, pt, nil)
			break
		}
	}

	// Variable-specific transitions. Pre-scan with the block filter:
	// when no live instance's state ref can fire anywhere in this
	// block, skip the snapshot and dispatch entirely. Sound because a
	// block where nothing fires also changes no instance state.
	anyInst := false
	for _, in := range st.sm.Active {
		if in.Inactive || in.CreatedAt == pt {
			continue
		}
		if en.mayFire(st.fn, b, en.transIdx.at(in.v, in.val)) {
			anyInst = true
			break
		}
	}
	if !anyInst {
		return matched
	}
	ctx := en.matchCtx(st, b, pt, false, returnPoint)
	en.snapshot = append(en.snapshot[:0], st.sm.Active...)
	for _, inst := range en.snapshot {
		if inst.Inactive || inst.CreatedAt == pt {
			continue
		}
		if !en.stillActive(st, inst) {
			continue
		}
		src := en.transIdx.at(inst.v, inst.val)
		if !en.mayFire(st.fn, b, src) {
			continue
		}
		for i := range src.rules {
			r := &src.rules[i]
			bnd, ok := r.Pat.Match(ctx, en.priorFor(r.Source.Var, inst))
			if !ok {
				continue
			}
			matched = true
			if r.PathSpecific {
				st.pending = append(st.pending, pendingBranch{
					r: r, v: inst.v, obj: inst.obj, neg: polarityOf(b, pt),
				})
				en.runTransitionActions(st, r.Transition, bnd, pt, inst)
				break
			}
			en.runTransitionActions(st, r.Transition, bnd, pt, inst)
			if r.dest.val == symStop {
				// Synonym mirroring on stop follows the paper's own
				// trace: an error transition stops only the triggering
				// instance (Figure 2 step 9 stops q but leaves its
				// synonym p active at step 12), while a verification
				// transition stops the whole group (§8: "a successful
				// check that p is not null also implies that q is not
				// null").
				en.killInstance(st, rec, inst, !transitionReports(r.Transition))
			} else {
				oldVal := inst.val
				for _, m := range st.sm.GroupMembers(inst) {
					if m.val == oldVal {
						m.val = r.dest.val
						m.trace = en.push(m.trace, traceMoves, pt, en.intern.vals.name(oldVal), r.Dest.Val)
					}
				}
			}
			break
		}
		if st.killPath {
			return matched
		}
	}
	return matched
}

// tracked reports whether the object, by its canonical text, has an
// active instance of state variable v.
func (en *Engine) tracked(st *pathState, v int32, e cc.Expr) bool {
	id, ok := en.intern.findObj(e)
	return ok && st.sm.Find(v, id) != nil
}

func (en *Engine) stillActive(st *pathState, inst *Instance) bool {
	for _, in := range st.sm.Active {
		if in == inst {
			return true
		}
	}
	return false
}

// transitionReports reports whether the transition's actions emit an
// error report.
func transitionReports(tr *metal.Transition) bool {
	for _, a := range tr.Actions {
		if a.Fn == "err" || a.Fn == "check_data" {
			return true
		}
	}
	return false
}

// runTransitionActions executes a transition's actions in the engine's
// action context, refilled for them; its buffer keeps its array.
func (en *Engine) runTransitionActions(st *pathState, tr *metal.Transition, bnd pattern.Bindings, pt cc.Expr, inst *Instance) {
	ctx := &en.act
	*ctx = actionCtx{
		Engine:   en,
		State:    st,
		Point:    pt,
		Pos:      posOf(pt),
		Bindings: bnd,
		Inst:     inst,
		buf:      ctx.buf,
	}
	en.runActions(ctx, tr.Actions)
}

func posOf(pt cc.Expr) cc.Pos {
	if pt == nil {
		return cc.Pos{}
	}
	return pt.Pos()
}

// polarityOf computes whether the matched point sits under a negation
// within the block's branch condition, so path-specific destinations
// follow source-level truth ("if (!trylock(l))" swaps the branches).
func polarityOf(b *cfg.Block, pt cc.Expr) bool {
	if b == nil || b.Cond == nil {
		return false
	}
	neg, found := findPolarity(b.Cond, pt, false)
	if !found {
		return false
	}
	return neg
}

func findPolarity(e cc.Expr, target cc.Expr, neg bool) (bool, bool) {
	if e == target {
		return neg, true
	}
	switch e := e.(type) {
	case *cc.UnaryExpr:
		if e.Op == cc.TokNot {
			return findPolarity(e.X, target, !neg)
		}
		return findPolarity(e.X, target, neg)
	case *cc.BinaryExpr:
		// x == 0 flips polarity; x != 0 preserves it.
		flip := false
		if lit, ok := e.Y.(*cc.IntLit); ok && lit.Value == 0 {
			if e.Op == cc.TokEq {
				flip = true
			}
		}
		if n, found := findPolarity(e.X, target, neg != flip); found {
			return n, true
		}
		return findPolarity(e.Y, target, neg)
	case *cc.AssignExpr:
		return findPolarity(e.RHS, target, neg)
	case *cc.CallExpr:
		for _, a := range e.Args {
			if n, found := findPolarity(a, target, neg); found {
				return n, true
			}
		}
		return findPolarity(e.Fun, target, neg)
	case *cc.CondExpr:
		if n, found := findPolarity(e.Cond, target, neg); found {
			return n, true
		}
		if n, found := findPolarity(e.Then, target, neg); found {
			return n, true
		}
		return findPolarity(e.Else, target, neg)
	}
	return false, false
}
