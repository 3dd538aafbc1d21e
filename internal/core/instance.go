package core

import (
	"repro/internal/cc"
	"repro/internal/prog"
)

// This file creates and kills state-machine instances (§2.1, §6.1).

// createInstance attaches a new state to a program object, spawning a
// new state machine (§2.1).
func (en *Engine) createInstance(st *pathState, rec *blockRec, dest stateSym, objExpr cc.Expr, pt cc.Expr) *Instance {
	inst := en.insts.New()
	*inst = Instance{
		v:         dest.v,
		obj:       en.intern.objID(objExpr),
		ObjExpr:   objExpr,
		val:       dest.val,
		CreatedAt: pt,
		StartPos:  posOf(pt),
		StartFunc: st.fn.Name,
		CallDepth: int32(st.callDepth),
	}
	if pt != nil {
		inst.trace = en.push(nil, traceEnters, pt, en.intern.objs.name(inst.obj), en.intern.vals.name(dest.val))
	}
	en.classifyScope(st.fn, inst)
	st.sm.Active = append(st.sm.Active, inst)
	return inst
}

// classifyScope records whether the tracked object is a global, a
// file-scope static, or local-mentioning (§6.1 scoping rules).
func (en *Engine) classifyScope(fn *prog.Function, inst *Instance) {
	if mentionsLocals(inst.ObjExpr, fn) {
		return
	}
	root := rootIdent(inst.ObjExpr)
	if root == "" {
		return
	}
	if file, ok := en.Prog.Statics[root]; ok {
		inst.Static = true
		inst.HomeFile = file
		return
	}
	if en.Prog.GlobalNames[root] {
		inst.GlobalObj = true
	}
}

// rootIdent returns the base identifier of an lvalue-ish expression.
func rootIdent(e cc.Expr) string {
	switch e := e.(type) {
	case *cc.Ident:
		return e.Name
	case *cc.UnaryExpr:
		return rootIdent(e.X)
	case *cc.FieldExpr:
		return rootIdent(e.X)
	case *cc.IndexExpr:
		return rootIdent(e.X)
	case *cc.CastExpr:
		return rootIdent(e.X)
	}
	return ""
}

// killInstance transitions an instance to stop, deleting its state
// machine (§2.1). With mirror set, synonym group members follow
// ("state changes in one are mirrored in the other", §8).
func (en *Engine) killInstance(st *pathState, rec *blockRec, inst *Instance, mirror bool) {
	victims := []*Instance{inst}
	if mirror && inst.Group != 0 {
		victims = st.sm.GroupMembers(inst)
	}
	for _, v := range victims {
		if rec != nil {
			en.noteKill(rec, st.sm.g, v)
		}
		st.sm.Remove(v)
	}
}
