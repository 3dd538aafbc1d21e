package core

import (
	"repro/internal/cc"
)

// This file handles assignments: value tracking, synonyms and kills
// (§8).

func (en *Engine) handleAssign(st *pathState, rec *blockRec, asg *cc.AssignExpr, pt cc.Expr) {
	if en.Opts.FPP && asg.Op == cc.TokAssign {
		st.env.Assign(asg.LHS, asg.RHS)
	}
	if asg.Op != cc.TokAssign {
		// Compound assignment redefines the LHS without copying state.
		en.handleMutation(st, rec, asg.LHS)
		return
	}
	if cc.EqualExpr(asg.LHS, asg.RHS) {
		return
	}
	// Synonyms: "If a variable tracked by an extension is assigned to
	// another variable, both variables become synonyms." Chained
	// assignments (p = q = kmalloc(...)) look through to the inner
	// LHS, which carries the value — the paper's §8 example. An object
	// is looked up only when there is an instance it could name.
	var newInst *Instance
	if ix := &en.intern; en.Opts.Synonyms && len(st.sm.Active) > 0 {
		srcExpr := asg.RHS
		for {
			inner, ok := srcExpr.(*cc.AssignExpr)
			if !ok || inner.Op != cc.TokAssign {
				break
			}
			srcExpr = inner.LHS
		}
		if obj, ok := ix.findObj(srcExpr); ok {
			if src := st.sm.FindObj(obj); src != nil && !src.Inactive {
				if src.Group == 0 {
					en.nextGroup++
					src.Group = en.nextGroup
				}
				newInst = en.clone(src)
				newInst.obj = ix.objID(asg.LHS)
				newInst.ObjExpr = asg.LHS
				newInst.SynDepth = src.SynDepth + 1
				newInst.CreatedAt = pt
				newInst.trace = en.push(newInst.trace, traceSynonym, pt, ix.objs.name(newInst.obj), ix.objs.name(obj))
				en.classifyScope(st.fn, newInst)
			}
		}
	}
	// Kill on redefinition: delete state attached to the assigned
	// variable and to any expression that uses it.
	if en.Opts.Kills {
		en.killMentions(st, rec, asg.LHS, newInst, pt)
	}
	if newInst != nil {
		if old := st.sm.Find(newInst.v, newInst.obj); old != nil {
			en.killInstance(st, rec, old, false)
		}
		st.sm.Active = append(st.sm.Active, newInst)
	}
}

// handleMutation kills state invalidated by ++/--/compound updates.
func (en *Engine) handleMutation(st *pathState, rec *blockRec, lval cc.Expr) {
	if id, ok := lval.(*cc.Ident); ok && en.Opts.FPP {
		st.env.Havoc(id.Name)
	}
	if en.Opts.Kills {
		en.killMentions(st, rec, lval, nil, nil)
	}
}

// killMentions removes instances whose tracked object's VALUE is or
// depends on the redefined lvalue: "an expression (e.g., a[i]) with
// attached state is transitioned to the stop state when a component of
// that expression (e.g., i) is redefined" (§8). An object of the form
// &x does not depend on x's value — writing x does not move its
// address — so lock state attached to &mutex survives mutex = 0.
func (en *Engine) killMentions(st *pathState, rec *blockRec, lval cc.Expr, spare *Instance, pt cc.Expr) {
	id, isIdent := lval.(*cc.Ident)
	en.snapshot = append(en.snapshot[:0], st.sm.Active...)
	for _, in := range en.snapshot {
		if in == spare {
			continue
		}
		// An instance created at this very point (e.g. by the pattern
		// "{ v = kmalloc(args) }") is not killed by its own defining
		// assignment.
		if pt != nil && in.CreatedAt == pt {
			continue
		}
		dead := false
		if isIdent {
			dead = valueDependsOn(in.ObjExpr, id.Name)
		} else {
			dead = cc.SubExprOf(lval, in.ObjExpr)
		}
		if dead && en.stillActive(st, in) {
			en.killInstance(st, rec, in, false)
		}
	}
}

// valueDependsOn reports whether e's value depends on the named
// variable's value. Occurrences directly under address-of (&name) are
// excluded: the address is storage identity, not content.
func valueDependsOn(e cc.Expr, name string) bool {
	found := false
	cc.WalkExpr(e, func(x cc.Expr) bool {
		switch x := x.(type) {
		case *cc.Ident:
			if x.Name == name {
				found = true
			}
		case *cc.UnaryExpr:
			if id, ok := x.X.(*cc.Ident); ok && x.Op == cc.TokAmp && !x.Postfix && id.Name == name {
				return false
			}
		}
		return !found
	})
	return found
}
