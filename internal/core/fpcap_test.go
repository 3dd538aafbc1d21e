package core

import (
	"testing"

	"repro/internal/workload"
)

func TestFingerprintCacheBounded(t *testing.T) {
	// With FPP ON, each diamond side adds distinct facts, so the
	// fingerprint-refined cache sees distinct keys. The per-block cap
	// must bound the blowup: traversal stays far below the 2^16 path
	// count.
	pr := workload.DiamondChain(16)
	en, _ := runChecker(t, freeChecker, map[string]string{"d.c": pr.Source}, DefaultOptions())
	t.Logf("blocks=%d paths=%d cacheHits=%d", en.Stats.Blocks, en.Stats.Paths, en.Stats.CacheHits)
	if en.Stats.Blocks > 30000 {
		t.Errorf("fingerprint cache cap failed to bound traversal: %d blocks", en.Stats.Blocks)
	}
	// Blocks deep in the chain see more than fpCacheCap fact sets; each
	// one that falls back to tuple-only coverage is counted once.
	blocks := int64(len(en.Prog.Lookup("diamonds").Graph.Blocks))
	if fb := en.Stats.FingerprintFallbacks; fb == 0 || fb > blocks {
		t.Errorf("FingerprintFallbacks = %d, want between 1 and the function's %d blocks", fb, blocks)
	}
}

// TestCountingLoopTerminates is the termination argument (DESIGN.md
// §5 "Termination") on its hardest shape: each trip's i++ bumps i's
// version fact, so each trip reaches the loop head under a fact set it
// has not seen and the fingerprint-refined block cache alone never
// stops it. What stops
// it is fpCacheCap: a block past 16 distinct fact sets falls back to
// tuple-only coverage, where the trip's tuple is already covered. The
// pinned numbers move if the cap moves by one (149 blocks at 17), and
// without the cap the traversal does not end.
func TestCountingLoopTerminates(t *testing.T) {
	src := `
void kfree(void *p);
int f(int *p, int n, int k) {
    int i;
    for (i = 0; i < n; i++)
        if (i == k)
            kfree(p);
    return *p;
}`
	en, rs := runChecker(t, freeChecker, map[string]string{"loop.c": src}, DefaultOptions())
	if en.Stats.Blocks != 141 || en.Stats.FingerprintFallbacks != 7 {
		t.Errorf("blocks=%d fp-fallbacks=%d, want 141 and 7", en.Stats.Blocks, en.Stats.FingerprintFallbacks)
	}
	if rs.Len() != 1 || rs.Reports[0].String() != "loop.c:8:12: [free_checker] using p after free!" {
		t.Errorf("reports %v, want the one use after free at loop.c:8:12", rs.Reports)
	}
}
