package main

import (
	"math"
	"sort"
)

// Summary is what the result JSON keeps of one metric's samples.
type Summary struct {
	N      int     `json:"n"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
}

// quartiles returns the three cut points of Python's
// statistics.quantiles(values, n=4) (the default "exclusive" method),
// so -compare judges spread exactly as the driver that accepts or
// rejects a run does. One value is its own three quartiles.
func quartiles(values []float64) (q1, q2, q3 float64) {
	v := append([]float64(nil), values...)
	sort.Float64s(v)
	m := len(v)
	if m == 0 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	if m == 1 {
		return v[0], v[0], v[0]
	}
	cut := func(i int) float64 {
		j := i * (m + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > m-1 {
			j = m - 1
		}
		delta := float64(i*(m+1) - j*4)
		return (v[j-1]*(4-delta) + v[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

func median(values []float64) float64 {
	_, q2, _ := quartiles(values)
	return q2
}

func summarize(values []float64) Summary {
	q1, q2, q3 := quartiles(values)
	s := Summary{N: len(values), Median: q2, Q1: q1, Q3: q3, Min: math.NaN(), Max: math.NaN()}
	for i, x := range values {
		if i == 0 || x < s.Min {
			s.Min = x
		}
		if i == 0 || x > s.Max {
			s.Max = x
		}
	}
	return s
}

// makespan is the finishing time of list scheduling: tasks start in
// order, each on the worker that frees up first. It models how
// mc.RunContext runs a phase's engines and pass 1's files on Jobs
// slots, and turns sequentially measured stage times into the wall
// clock they block.
func makespan(durs []float64, workers int) float64 {
	if workers < 1 {
		workers = 1
	}
	free := make([]float64, workers)
	for _, d := range durs {
		w := 0
		for i := range free {
			if free[i] < free[w] {
				w = i
			}
		}
		free[w] += d
	}
	end := 0.0
	for _, f := range free {
		end = math.Max(end, f)
	}
	return end
}
