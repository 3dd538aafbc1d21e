package core

// Interner growth regression: a long-lived engine (the daemon's
// resident-tree model) re-runs over the same program many times. The
// canonical byStr/strs tables are keyed by tuple identity and must
// stabilize after the first run; the struct-key cache (ids) is
// run-scoped and must be released at the end of each run and bounded
// within one.

import (
	"testing"

	"repro/internal/checkers"
	"repro/internal/workload"
)

// TestInternerStableAcrossRuns: repeated RunRoots calls on a resident
// tree must not grow the interner's footprint without bound.
func TestInternerStableAcrossRuns(t *testing.T) {
	srcs, _ := workload.MixedTree(3, 12, 7)
	p := buildProg(t, srcs)
	free := mustChecker(t, checkers.Free)
	en := NewEngine(p, free, DefaultOptions())

	en.RunRoots(p.Roots)
	strsAfter1 := len(en.intern.strs)
	byStrAfter1 := len(en.intern.byStr)
	if strsAfter1 == 0 {
		t.Fatal("first run interned nothing; workload too small to test growth")
	}
	if got := len(en.intern.ids); got != 0 {
		t.Errorf("ids cache not released at end of run: %d entries", got)
	}

	for i := 0; i < 5; i++ {
		en.RunRoots(p.Roots)
		if got := len(en.intern.strs); got != strsAfter1 {
			t.Fatalf("run %d: strs grew %d -> %d; canonical table must be stable on a resident tree",
				i+2, strsAfter1, got)
		}
		if got := len(en.intern.byStr); got != byStrAfter1 {
			t.Fatalf("run %d: byStr grew %d -> %d", i+2, byStrAfter1, got)
		}
		if got := len(en.intern.ids); got != 0 {
			t.Fatalf("run %d: ids cache not released: %d entries", i+2, got)
		}
	}
}

// TestInternerIdsCacheBounded: within a run, the struct-key cache
// resets at idsCacheCap instead of growing monotonically.
func TestInternerIdsCacheBounded(t *testing.T) {
	in := newInterner()
	for i := 0; i < idsCacheCap*2; i++ {
		in.id(Tuple{G: "g", Var: "v", Obj: "o", Val: "val", Data: int64(i)})
		if got := len(in.ids); got > idsCacheCap {
			t.Fatalf("ids cache exceeded its cap: %d > %d", got, idsCacheCap)
		}
	}
	// The canonical tables keep every distinct tuple, cap or not.
	if got := len(in.strs); got != idsCacheCap*2 {
		t.Errorf("strs = %d, want %d (canonical table must not drop tuples)", got, idsCacheCap*2)
	}
	// Re-interning an evicted tuple re-derives the same id.
	first := in.id(Tuple{G: "g", Var: "v", Obj: "o", Val: "val", Data: 0})
	if in.key(first) != (Tuple{G: "g", Var: "v", Obj: "o", Val: "val", Data: 0}).Key() {
		t.Error("re-interned tuple renders a different key")
	}
}
