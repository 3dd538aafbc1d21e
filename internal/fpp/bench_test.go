package fpp

import (
	"testing"

	"repro/internal/cc"
)

// pathEnv builds an environment the size the engine's paths carry on
// the call-rich benchmark tree: a few versions, a merged class, a
// pinned constant and two relations.
func pathEnv(tb testing.TB) (*Env, cc.Expr) {
	ex := func(src string) cc.Expr {
		e, err := cc.ParseExprString(src)
		if err != nil {
			tb.Fatal(err)
		}
		return e
	}
	e := NewEnv()
	e.Assign(ex("acc"), ex("0"))
	e.Assign(ex("q"), ex("p"))
	e.AssumeCond(ex("p"), true)
	e.AssumeCond(ex("n > 3"), true)
	e.AssumeCond(ex("c0"), false)
	return e, ex("n > 3 && q != 0 && acc == 0")
}

// The allocation guards of the DFS hot path (ROADMAP 2(d): gate on what
// is deterministic). A clone is the struct and one pointer-free array;
// a fingerprint of an unchanged environment is a cached id; evaluating
// a condition over interned terms allocates nothing.
func TestEnvAllocs(t *testing.T) {
	e, cond := pathEnv(t)
	if got := testing.AllocsPerRun(100, func() { sink = e.Clone() }); got > 2 {
		t.Errorf("Clone: %v allocs, want <= 2", got)
	}
	e.Fingerprint()
	if got := testing.AllocsPerRun(100, func() { sinkFP = e.Fingerprint() }); got != 0 {
		t.Errorf("repeated Fingerprint: %v allocs, want 0", got)
	}
	// A changed environment whose fact set the table has seen costs
	// nothing either: the id is found, not built.
	c := e.Clone()
	if got := testing.AllocsPerRun(100, func() {
		c.fpValid = false
		sinkFP = c.Fingerprint()
	}); got != 0 {
		t.Errorf("Fingerprint of a seen fact set: %v allocs, want 0", got)
	}
	if e.EvalCond(cond) != MustTrue {
		t.Fatal("guard condition should hold")
	}
	if got := testing.AllocsPerRun(100, func() { sinkV = e.EvalCond(cond) }); got != 0 {
		t.Errorf("EvalCond over interned terms: %v allocs, want 0", got)
	}
}

var (
	sink   *Env
	sinkFP uint32
	sinkV  Verdict
)

func BenchmarkEnvClone(b *testing.B) {
	e, _ := pathEnv(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sink = e.Clone()
	}
}

// BenchmarkEnvFingerprint is the per-block cost after a split: clone,
// assume the branch, fingerprint the (already seen) fact set.
func BenchmarkEnvFingerprint(b *testing.B) {
	e, _ := pathEnv(b)
	cond, err := cc.ParseExprString("c1")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c := e.Clone()
		c.AssumeCond(cond, true)
		sinkFP = c.Fingerprint()
	}
}
