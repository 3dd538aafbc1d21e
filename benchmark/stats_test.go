package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

// Expected values are Python's statistics.quantiles(values, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		in         []float64
		q1, q2, q3 float64
	}{
		{[]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}, 2.75, 5.5, 8.25},
		{[]float64{1, 2, 3}, 1, 2, 3},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{4}, 4, 4, 4},
		{[]float64{1.5, 2.5, 4, 8, 16, 32, 64, 128, 256}, 3.25, 16, 96},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.in)
		if !near(q1, c.q1) || !near(q2, c.q2) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.in, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
	s := summarize([]float64{3, 1, 2})
	if s.N != 3 || s.Median != 2 || s.Min != 1 || s.Max != 3 {
		t.Errorf("summarize = %+v", s)
	}
}

func TestMakespan(t *testing.T) {
	cases := []struct {
		durs    []float64
		workers int
		want    float64
	}{
		{[]float64{3, 1, 1, 1}, 2, 3}, // the long task holds one slot, the rest share the other
		{[]float64{3, 1, 1, 1}, 1, 6},
		{[]float64{1, 1, 3}, 2, 4}, // in order, not longest first
		{nil, 2, 0},
	}
	for _, c := range cases {
		if got := makespan(c.durs, c.workers); !near(got, c.want) {
			t.Errorf("makespan(%v, %d) = %v, want %v", c.durs, c.workers, got, c.want)
		}
	}
}
