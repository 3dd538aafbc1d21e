package core

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/cc"
	"repro/internal/checkers"
	"repro/internal/metal"
	"repro/internal/pattern"
	"repro/internal/workload"
)

// sameSlice reports whether a and b are one slice, not equal copies.
func sameSlice(a, b pattern.Bindings) bool {
	return len(a) == len(b) && len(a) > 0 && &a[0] == &b[0]
}

// exactPrior reports whether m is exactly {varName: inst.ObjExpr}.
func exactPrior(m pattern.Bindings, varName string, inst *Instance) bool {
	return len(m) == 1 && m[0].Name == varName && m[0].Expr == inst.ObjExpr && m[0].Args == nil
}

// priorSpy wraps a transition's pattern and checks the prior of every
// variable-specific dispatch against the engine's own state. Both
// dispatch loops range over en.snapshot and hand Match the dispatching
// instance's prior slice itself, so some snapshot instance in the
// transition's source state must hold that very slice for its current
// ObjExpr, and it must be exactly {Var: ObjExpr}. (A clone that has not
// dispatched since it was re-pointed may still hold its original's
// slice; it builds its own at its first dispatch, which is what this
// sees.)
type priorSpy struct {
	pattern.Pattern
	t    *testing.T
	tr   *metal.Transition
	en   **Engine
	objs map[string]int // dispatches seen, by the prior's object
}

func (s priorSpy) Match(ctx *pattern.Ctx, prior pattern.Bindings) (pattern.Bindings, bool) {
	if src := s.tr.Source; src.Var != "" {
		held := false
		ix := (*s.en).intern
		for _, inst := range (*s.en).snapshot {
			if ix.vars.name(inst.v) != src.Var || ix.vals.name(inst.val) != src.Val || !sameSlice(inst.prior, prior) || prior[0].Expr != inst.ObjExpr {
				continue
			}
			held = true
			if !exactPrior(prior, src.Var, inst) {
				s.t.Errorf("%s dispatched on %s with prior %v", src, ix.objs.name(inst.obj), prior)
			}
		}
		if !held {
			s.t.Errorf("%s dispatched with prior %v, which no active instance in that state holds for its current object", src, prior)
		}
		s.objs[cc.ExprKey(prior[0].Expr)]++
	}
	return s.Pattern.Match(ctx, prior)
}

// spied runs the suite over the sources in load order on one annotation
// store, every transition's pattern wrapped in a priorSpy, and returns
// the dispatch counts by prior object.
func spied(t *testing.T, srcs map[string]string, suite []*metal.Checker) (objs map[string]int, reports []string) {
	t.Helper()
	p := buildProg(t, srcs)
	shared := NewShared()
	shared.Mark("net_wait", "blocking")
	objs = map[string]int{}
	for _, c := range suite {
		var en *Engine
		for _, tr := range c.Transitions {
			tr.Pat = priorSpy{Pattern: tr.Pat, t: t, tr: tr, en: &en, objs: objs}
		}
		en = NewEngineShared(p, c, DefaultOptions(), shared)
		for _, r := range en.RunContext(context.Background()).Reports {
			reports = append(reports, r.Msg)
		}
	}
	return objs, reports
}

// TestInstancePrior: the prior an instance's transitions match from is
// shared, current and never written (Match's half of that is
// TestMatchNeverWritesPrior in internal/pattern).
func TestInstancePrior(t *testing.T) {
	p, q := &cc.Ident{Name: "p"}, &cc.Ident{Name: "q"}
	inst := &Instance{ObjExpr: p}
	orig := inst.matchPrior("v")
	if !exactPrior(orig, "v", inst) {
		t.Fatalf("prior %v, want exactly {v: p}", orig)
	}
	cp := inst.clone()
	if !sameSlice(cp.matchPrior("v"), orig) || !sameSlice(inst.matchPrior("v"), orig) {
		t.Error("an instance and its clone must share one prior slice")
	}
	// What refine's mapped copy and the synonym copy do to a clone.
	cp.ObjExpr = q
	if moved := cp.matchPrior("v"); sameSlice(moved, orig) || !exactPrior(moved, "v", cp) {
		t.Errorf("re-pointed clone's prior %v, want a slice of its own, exactly {v: q}", moved)
	}
	if !sameSlice(inst.matchPrior("v"), orig) || !exactPrior(orig, "v", inst) {
		t.Errorf("the original's prior became %v, want it untouched at {v: p}", inst.matchPrior("v"))
	}

	// The two sites themselves, under the engine: use() sees p as its
	// formal q (refine), r becomes a synonym of p (handleAssign), and
	// each dispatches — and so fires — on a prior for its own expression.
	objs, reports := spied(t, map[string]string{"sites.c": `
void kfree(void *p);
int use(int *q) { return *q; }
int f(int *p, int *r) { kfree(p); r = p; use(r); return *p; }
`}, []*metal.Checker{mustChecker(t, checkers.Free)})
	for _, obj := range []string{"p", "q", "r"} {
		if objs[obj] == 0 {
			t.Errorf("no dispatch on a prior for %s (seen: %v)", obj, objs)
		}
	}
	if want := []string{"using q after free!", "using p after free!"}; !reflect.DeepEqual(reports, want) {
		t.Errorf("reports %q, want %q", reports, want)
	}

	// And wherever the bundled suite dispatches on the call-rich tree.
	if objs, _ := spied(t, workload.CallRichTree(), bundledSuite(t)); len(objs) == 0 {
		t.Error("the suite dispatched no variable-specific transition on the call-rich tree")
	}
}
