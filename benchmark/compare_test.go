package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

func TestJudge(t *testing.T) {
	lower := MetricSpec{Name: "op_wall_s", Better: "lower", Bound: 0.10}
	higher := MetricSpec{Name: "rate", Better: "higher", Bound: 0.10}
	tight := func(m float64) Summary { return Summary{N: 9, Median: m, Q1: m * 0.99, Q3: m * 1.01} }
	wide := func(m float64) Summary { return Summary{N: 9, Median: m, Q1: m * 0.9, Q3: m * 1.1} }
	cases := []struct {
		m              MetricSpec
		parent, change Summary
		want           string
	}{
		{lower, tight(1), tight(1.05), verdictOK},
		{lower, tight(1), tight(0.5), verdictOK},
		{lower, tight(1), tight(1.11), verdictWorse},
		{lower, wide(1), tight(1.05), verdictUnresolved},
		{lower, tight(1), wide(1.05), verdictUnresolved},
		{lower, wide(1), wide(1.2), verdictWorse},
		{higher, tight(1), tight(0.95), verdictOK},
		{higher, tight(1), tight(0.85), verdictWorse},
		{higher, tight(1), tight(2), verdictOK},
	}
	for _, c := range cases {
		if got := judge(c.m, c.parent, c.change); got != c.want {
			t.Errorf("judge(%s, %v -> %v) = %s, want %s", c.m.Better, c.parent.Median, c.change.Median, got, c.want)
		}
	}
}

func TestCompare(t *testing.T) {
	spec := &Spec{EndToEnd: []MetricSpec{
		{Name: "op_wall_s", Better: "lower", Bound: 0.10},
		{Name: "op_allocs", Better: "lower", Bound: 0.02},
	}}
	result := func(wall, allocs float64) []*Result {
		return []*Result{{Workloads: []Detail{{Workload: "cold-calls", Quartiles: map[string]Summary{
			"op_wall_s": {N: 9, Median: wall, Q1: wall, Q3: wall},
			"op_allocs": {N: 9, Median: allocs, Q1: allocs, Q3: allocs},
		}}}}}
	}
	var out bytes.Buffer
	worse, err := compare(&out, spec, result(1, 1000), result(1.05, 1000))
	if err != nil || worse {
		t.Fatalf("worse=%v err=%v, want an unchanged pair to pass\n%s", worse, err, out.String())
	}
	out.Reset()
	worse, err = compare(&out, spec, result(1, 1000), result(1.05, 1030))
	if err != nil || !worse || !strings.Contains(out.String(), verdictWorse) {
		t.Fatalf("worse=%v err=%v, want 3%% more allocations to be worse under a 2%% bound\n%s", worse, err, out.String())
	}
	if _, err := compare(&out, spec, result(1, 1000), []*Result{{}}); err == nil {
		t.Error("a missing workload must be an error")
	}
	// Several runs a side: the spread is that of the runs' medians. Each
	// run is tight, the runs disagree by more than the bound.
	var runs []*Result
	for _, wall := range []float64{0.8, 1, 1.2, 1} {
		runs = append(runs, result(wall, 1000)...)
	}
	out.Reset()
	worse, err = compare(&out, spec, runs, result(1.02, 1000))
	if err != nil || worse || !strings.Contains(out.String(), verdictUnresolved) {
		t.Fatalf("worse=%v err=%v, want runs that disagree to leave the pairing unresolved\n%s", worse, err, out.String())
	}
}

// BENCHMARK.json is the one place that names metrics and workloads;
// the code has to produce exactly what it declares.
func TestSpecMatchesCode(t *testing.T) {
	spec, err := loadSpec("..")
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.PerLayer) != len(layerNames) {
		t.Errorf("BENCHMARK.json declares %d per-layer metrics, the traced run produces %d", len(spec.PerLayer), len(layerNames))
	}
	for i, m := range spec.PerLayer {
		if i < len(layerNames) && m.Name != layerNames[i] {
			t.Errorf("per_layer[%d] = %s, code has %s", i, m.Name, layerNames[i])
		}
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the code has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].Name {
			t.Errorf("workload %d: BENCHMARK.json names %s, workloads.go %s", i, w.Name, workloads[i].Name)
		}
		if _, ok := trees[workloads[i].Tree]; !ok {
			t.Errorf("workload %s names an unknown tree %s", w.Name, workloads[i].Tree)
		}
	}
	hasSetup := false
	for _, m := range spec.EndToEnd {
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if !hasSetup {
		t.Error("end_to_end lacks setup_s")
	}
	var pinned map[string]string
	data, err := os.ReadFile("expected.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &pinned); err != nil {
		t.Fatal(err)
	}
	for name := range trees {
		if pinned[name] == "" {
			t.Errorf("expected.json pins no digest for %s", name)
		}
	}
}
