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

// exactPrior reports whether m is exactly {varName: inst.ObjExpr}.
func exactPrior(m pattern.Bindings, varName string, inst *Instance) bool {
	return len(m) == 1 && m[0].Name == varName && m[0].Expr == inst.ObjExpr && m[0].Args == nil
}

// priorSpy wraps a transition's pattern and checks the prior of every
// variable-specific dispatch against the engine's own state. Both
// dispatch loops range over en.snapshot and hand Match the engine's one
// prior, refilled for the dispatching instance: so the prior is that
// one-entry array, at cap 1, some snapshot instance in the transition's
// source state has exactly {Var: ObjExpr} for its current ObjExpr, and
// the match leaves it as it found it.
type priorSpy struct {
	pattern.Pattern
	t    *testing.T
	tr   *metal.Transition
	en   **Engine
	objs map[string]int // dispatches seen, by the prior's object
}

func (s priorSpy) Match(ctx *pattern.Ctx, prior pattern.Bindings) (pattern.Bindings, bool) {
	src := s.tr.Source
	if src.Var == "" {
		return s.Pattern.Match(ctx, prior)
	}
	en := *s.en
	if len(prior) != 1 || cap(prior) != 1 || &prior[0] != &en.prior[0] {
		s.t.Fatalf("%s dispatched with prior %v (cap %d), not the engine's one-entry prior", src, prior, cap(prior))
	}
	held := false
	ix := &en.intern
	for _, inst := range en.snapshot {
		if ix.vars.name(inst.v) == src.Var && ix.vals.name(inst.val) == src.Val && exactPrior(prior, src.Var, inst) {
			held = true
		}
	}
	if !held {
		s.t.Errorf("%s dispatched with prior %v, which is not {%s: ObjExpr} of any active instance in that state", src, prior, src.Var)
	}
	s.objs[cc.ExprString(prior[0].Expr)]++
	before := prior[0]
	bnd, ok := s.Pattern.Match(ctx, prior)
	if prior[0].Name != before.Name || prior[0].Expr != before.Expr || prior[0].Args != nil {
		s.t.Errorf("%s: the match wrote its prior: %v, was %v", src, prior, pattern.Bindings{before})
	}
	return bnd, ok
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
// the engine's one prior, exactly {Var: ObjExpr} of the dispatching
// instance, and the match leaves it alone (Match's half of that is
// TestMatchNeverWritesPrior in internal/pattern).
func TestInstancePrior(t *testing.T) {
	// The two sites that re-point a copy of an instance, under the engine:
	// use() sees p as its formal q (refine), r becomes a synonym of p
	// (handleAssign), and each dispatches — and so fires — on a prior for
	// its own expression.
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
