package core

import (
	"context"
	"reflect"
	"sort"
	"testing"

	"repro/internal/prog"
)

// summaryOut renders the edges of callee's function summary (its entry
// block's suffix summary) that apply at entry tuple t, as followCall
// applies them: the transition edges out of t and, when t is the
// placeholder — nothing known about any object — the add edges out of
// its global state.
func summaryOut(en *Engine, callee *prog.Function, t Tuple) map[string]bool {
	ix := &en.intern
	entry := en.funcInfo(callee).info(callee.Graph.Entry)
	out := map[string]bool{}
	for _, e := range entry.sfxTrans.from(ix, &t) {
		out[ix.key(e.from)+" --> "+ix.key(e.to)] = true
	}
	if t.obj == 0 {
		for _, e := range entry.sfxAdds.all() {
			if ix.tups[e.from].g == t.g {
				out[ix.key(e.from)+" --> "+ix.key(e.to)] = true
			}
		}
	}
	return out
}

// freshSummary traverses callee in a fresh engine from the tuple t of
// engine en — its global state and, unless t is the placeholder, the
// instance t stands for — under the marks visible to en, and returns
// the fresh engine's edges out of that tuple.
func freshSummary(en *Engine, cd *CompiledDispatch, ci int, callee *prog.Function, t Tuple) map[string]bool {
	marks := NewShared()
	for _, ev := range en.shared.Events() {
		marks.Mark(ev.Name, ev.Key)
	}
	fresh := NewEngineShared(en.Prog, en.Checker, en.Opts, marks)
	fresh.SetCompiled(cd, ci)
	ix, fx := &en.intern, &fresh.intern
	// The callee runs as a call does, a frame below its root: a root's
	// exit would stop every instance.
	g := fx.vals.id(ix.vals.name(t.g))
	caller := fresh.enter(nil, callee, g)
	st := fresh.enter(caller, callee, g)
	start := placeholderTuple(g)
	if t.obj != 0 {
		in := t.Prov.clone()
		in.v, in.val = fx.vars.id(ix.vars.name(in.v)), fx.vals.id(ix.vals.name(in.val))
		in.obj = fx.objID(in.ObjExpr)
		st.sm.Active = append(st.sm.Active, in)
		start = instTuple(st.sm.g, in)
	}
	fresh.dfsDirty = true
	fresh.callStack = append(fresh.callStack[:0], callee, callee)
	fresh.beginRoot(callee)
	fresh.traverseBlock(st, callee.Graph.Entry)
	fresh.release(st)
	fresh.release(caller)
	return summaryOut(fresh, callee, start)
}

// summaryAuditKnownMisses lists, by tree, the function-summary hits
// whose summary lacks an edge a fresh traversal from the hit tuple
// finds: checker/callee and the tuple. Finding 4 (A), ROADMAP 1(a):
// leaf was only entered with p freed; the double free stopped p, and
// relax carried (start,<>) --> (start,<>) to the entry, so z_mid's
// call with nothing tracked hits a summary that lacks kfree's add edge.
// A miss anywhere else is a new finding, not an entry here.
var summaryAuditKnownMisses = map[string][]string{
	"rootorder/finding4.c": {"free_checker/leaf (start,<>)"},
}

// TestFunctionSummaryAudit holds every function-summary hit to a fresh
// traversal (ROADMAP 1(b)): at each hit, under every bundled checker
// run as an mc run runs it, the callee is traversed in a fresh engine
// from the exact tuple the summary answered for, and the summary's
// edges out of that tuple must include the fresh engine's. The hits
// that fall short must be exactly summaryAuditKnownMisses.
func TestFunctionSummaryAudit(t *testing.T) {
	hits := 0
	for _, tree := range suffixRefTrees(t) {
		misses, n := summaryAuditMisses(t, tree.name, tree.srcs)
		hits += n
		if want := summaryAuditKnownMisses[tree.name]; !reflect.DeepEqual(misses, want) {
			t.Errorf("%s: summaries fall short at %v, known misses are %v", tree.name, misses, want)
		}
	}
	if hits == 0 {
		t.Fatal("no function summary was hit; the audit is vacuous")
	}
	t.Logf("%d function-summary hits audited", hits)
}

// summaryAuditMisses runs every bundled checker over the tree, phase by
// phase over one annotation store, audits each summary hit once per
// checker, callee and tuple, and returns the hits that fell short,
// sorted, and how many distinct hits it audited.
func summaryAuditMisses(t *testing.T, name string, srcs map[string]string) (misses []string, audited int) {
	suite := bundledSuite(t)
	p := buildProg(t, srcs)
	shared := NewShared()
	shared.Mark("net_wait", "blocking")
	cd := CompileDispatch(p, suite)
	for _, phase := range PlanPhases(suite) {
		for _, ci := range phase {
			c := suite[ci]
			en := NewEngineShared(p, c, DefaultOptions(), shared)
			en.SetCompiled(cd, ci)
			seen := map[string]bool{}
			en.auditHit = func(callee *prog.Function, tu Tuple) {
				hit := c.Name + "/" + callee.Name + " " + en.intern.key(en.intern.idOf(&tu))
				if seen[hit] {
					return
				}
				seen[hit] = true
				audited++
				got := summaryOut(en, callee, tu)
				short := false
				for e := range freshSummary(en, cd, ci, callee, tu) {
					if !got[e] {
						short = true
						t.Logf("%s: %s: the summary lacks %s", name, hit, e)
					}
				}
				if short {
					misses = append(misses, hit)
				}
			}
			en.RunContext(context.Background())
		}
	}
	sort.Strings(misses)
	return misses, audited
}
