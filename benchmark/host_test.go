package main

import "testing"

func TestAtReference(t *testing.T) {
	// Two intervals between three reference samples: the first ran at
	// reference speed, the second while the host was half as fast on
	// average over its two samples.
	got := atReference([]float64{2, 3}, []float64{0.1, 0.1, 0.3}, 0.1)
	if !near(got[0], 2) || !near(got[1], 1.5) {
		t.Errorf("atReference = %v, want [2 1.5]", got)
	}
}

func TestStarvedComparesWithinTheRun(t *testing.T) {
	h := &host{}
	for i, c := range []struct {
		cores float64
		want  bool
	}{
		{0.9, false}, // a host with one core to give: the best so far
		{1.8, false},
		{1.6, false}, // 0.89 of the best
		{1.4, true},  // 0.78 of the best
		{1.9, false},
		{1.6, true}, // the best moved up
	} {
		if got := h.starved(refSample{wall: 1, cpu: c.cores}); got != c.want {
			t.Errorf("sample %d (%.1f cores, best %.1f): starved = %v, want %v", i, c.cores, h.best, got, c.want)
		}
	}
}
