package fpp

import (
	"fmt"
	"testing"

	"repro/internal/cc"
)

// pathEnv builds an environment the size the engine's paths carry on
// the call-rich benchmark tree: a few versions, a merged class, a
// pinned constant and two relations. fill makes the same facts again in
// an empty environment.
func pathEnv(tb testing.TB) (e *Env, cond cc.Expr, fill func(*Env)) {
	ex := func(src string) cc.Expr {
		e, err := cc.ParseExprString(src)
		if err != nil {
			tb.Fatal(err)
		}
		return e
	}
	acc, zero, q, p, n3, c0 := ex("acc"), ex("0"), ex("q"), ex("p"), ex("n > 3"), ex("c0")
	fill = func(e *Env) {
		e.Assign(acc, zero)
		e.Assign(q, p)
		e.AssumeCond(p, true)
		e.AssumeCond(n3, true)
		e.AssumeCond(c0, false)
	}
	e = NewEnv()
	fill(e)
	return e, ex("n > 3 && q != 0 && acc == 0"), fill
}

// The allocation guards of the DFS hot path (ROADMAP 2(d): gate on what
// is deterministic). Copying into a warmed environment — a recycled
// frame's — reuses its array; a fingerprint of an unchanged environment
// is a cached id; evaluating a condition over interned terms allocates
// nothing; and a table that was warmed and Reset interns new terms and
// fact sets into what it grew before.
func TestEnvAllocs(t *testing.T) {
	e, cond, fill := pathEnv(t)
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
	// The engine's table between units: every set after a Reset is a
	// first-seen one, its facts appended to the arena the last unit grew.
	tab := NewTable()
	w := tab.NewEnv()
	fill(w)
	w.Fingerprint()
	if got := testing.AllocsPerRun(100, func() {
		tab.Reset()
		w.Reset(tab)
		fill(w)
		sinkFP = w.Fingerprint()
	}); got != 0 {
		t.Errorf("Fingerprint of a first-seen fact set on a warmed, Reset table: %v allocs, want 0", got)
	}
	if _, fps := tab.Len(); fps != 1 {
		t.Errorf("the Reset table holds %d fingerprints, want 1", fps)
	}
}

var (
	sinkFP uint32
	sinkV  Verdict
)

// BenchmarkEnvCopy is the environment's share of a path split: a copy
// into the successor's recycled frame.
func BenchmarkEnvCopy(b *testing.B) {
	e, _, _ := pathEnv(b)
	var c Env
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.CopyFrom(e)
	}
}

// BenchmarkEnvFingerprint is the per-block cost after a split: copy,
// assume the branch, fingerprint the fact set — one the table has seen
// (seen-set), or one it has not (new-set: m == k for a k not met before,
// on a table Reset every len(conds) sets, as the engine's is between
// units).
func BenchmarkEnvFingerprint(b *testing.B) {
	b.Run("seen-set", func(b *testing.B) {
		e, _, _ := pathEnv(b)
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
	})
	b.Run("new-set", func(b *testing.B) {
		e, _, fill := pathEnv(b)
		conds := make([]cc.Expr, 256)
		for k := range conds {
			x, err := cc.ParseExprString(fmt.Sprintf("m == %d", k))
			if err != nil {
				b.Fatal(err)
			}
			conds[k] = x
		}
		var c Env
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			k := i % len(conds)
			if k == 0 {
				e.tab.Reset()
				e.Reset(e.tab)
				fill(e)
			}
			c.CopyFrom(e)
			c.AssumeCond(conds[k], true)
			sinkFP = c.Fingerprint()
		}
	})
}
