package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
)

// Result is what one suite run writes: host facts, settings, and one
// Detail per workload (a traced suite also carries the per-layer
// metrics, merged into the same Detail).
type Result struct {
	Seed          int64    `json:"seed"`
	WindowSeconds float64  `json:"window_seconds"`
	Nproc         int      `json:"nproc"`
	GOMAXPROCS    int      `json:"gomaxprocs"`
	Jobs          int      `json:"jobs"`
	GoVersion     string   `json:"go_version"`
	Commit        string   `json:"commit"`
	LoadShape     string   `json:"load_shape"`
	Workloads     []Detail `json:"workloads"`
}

func loadResult(path string) (*Result, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Result
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// loadSide reads one side of a comparison: the result files of one or
// more suite runs of the same commit, separated by commas.
func loadSide(paths string) ([]*Result, error) {
	var side []*Result
	for _, p := range strings.Split(paths, ",") {
		r, err := loadResult(p)
		if err != nil {
			return nil, err
		}
		side = append(side, r)
	}
	return side, nil
}

// sideSummary is what one side says about one workload's metric: the
// run's own ops when the side is a single run, and the medians of its
// runs otherwise, which is how the driver that accepts a change judges
// spread.
func sideSummary(side []*Result, workload, metric string) (Summary, bool) {
	var own Summary
	var medians []float64
	for _, r := range side {
		for _, d := range r.Workloads {
			if s, ok := d.Quartiles[metric]; ok && d.Workload == workload {
				own = s
				medians = append(medians, s.Median)
			}
		}
	}
	switch {
	case len(medians) != len(side):
		return Summary{}, false
	case len(side) == 1:
		return own, true
	}
	return summarize(medians), true
}

// Verdicts of one workload × end-to-end metric pairing.
const (
	verdictOK         = "ok"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// judge compares the change's median with the parent's under a bound.
// A median worse by more than the bound is "worse"; otherwise, where
// either side's own spread (quartile distance over median) is wider
// than the bound, the pairing cannot be called unchanged and is
// "unresolved".
func judge(m MetricSpec, parent, change Summary) string {
	worse := change.Median > parent.Median*(1+m.Bound)
	if m.Better == "higher" {
		worse = change.Median < parent.Median*(1-m.Bound)
	}
	if worse {
		return verdictWorse
	}
	for _, s := range []Summary{parent, change} {
		if s.Median != 0 && (s.Q3-s.Q1)/s.Median > m.Bound {
			return verdictUnresolved
		}
	}
	return verdictOK
}

// compare prints one row per workload × end-to-end metric and reports
// whether any pairing is worse.
func compare(w io.Writer, spec *Spec, parent, change []*Result) (worse bool, err error) {
	fmt.Fprintf(w, "%-13s %-12s %14s %14s %18s  %s\n", "workload", "metric", "parent", "change", "change/parent", "verdict")
	for _, pd := range parent[0].Workloads {
		for _, m := range spec.EndToEnd {
			ps, pok := sideSummary(parent, pd.Workload, m.Name)
			cs, cok := sideSummary(change, pd.Workload, m.Name)
			if !pok || !cok {
				return false, fmt.Errorf("%s: metric %s is missing from a result", pd.Workload, m.Name)
			}
			v := judge(m, ps, cs)
			worse = worse || v == verdictWorse
			fmt.Fprintf(w, "%-13s %-12s %14.6g %14.6g %10.4f of %-7.6g %s (bound %.2f, n=%d and %d)\n",
				pd.Workload, m.Name, ps.Median, cs.Median, ratio(cs.Median, ps.Median), ps.Median, v, m.Bound, ps.N, cs.N)
		}
	}
	return worse, nil
}
