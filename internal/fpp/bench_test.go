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
// is deterministic). Copying into a warmed environment — a recycled
// frame's — reuses its array; a fingerprint of an unchanged environment
// is a cached id; evaluating a condition over interned terms allocates
// nothing.
func TestEnvAllocs(t *testing.T) {
	e, cond := pathEnv(t)
	var c Env
	c.CopyFrom(e)
	if got := testing.AllocsPerRun(100, func() { c.CopyFrom(e) }); got != 0 {
		t.Errorf("CopyFrom into a warmed Env: %v allocs, want 0", got)
	}
	if got := testing.AllocsPerRun(100, func() { c.Reset(e.tab); c.CopyFrom(e) }); got != 0 {
		t.Errorf("Reset then CopyFrom: %v allocs, want 0", got)
	}
	e.Fingerprint()
	if got := testing.AllocsPerRun(100, func() { sinkFP = e.Fingerprint() }); got != 0 {
		t.Errorf("repeated Fingerprint: %v allocs, want 0", got)
	}
	// A changed environment whose fact set the table has seen costs
	// nothing either: the id is found, not built.
	c.CopyFrom(e)
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
	sinkFP uint32
	sinkV  Verdict
)

// BenchmarkEnvCopy is the environment's share of a path split: a copy
// into the successor's recycled frame.
func BenchmarkEnvCopy(b *testing.B) {
	e, _ := pathEnv(b)
	var c Env
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.CopyFrom(e)
	}
}

// BenchmarkEnvFingerprint is the per-block cost after a split: copy,
// assume the branch, fingerprint the (already seen) fact set.
func BenchmarkEnvFingerprint(b *testing.B) {
	e, _ := pathEnv(b)
	cond, err := cc.ParseExprString("c1")
	if err != nil {
		b.Fatal(err)
	}
	var c Env
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.CopyFrom(e)
		c.AssumeCond(cond, true)
		sinkFP = c.Fingerprint()
	}
}
