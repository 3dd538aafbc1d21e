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
