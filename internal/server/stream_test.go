package server

import (
	"context"
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/checkers"
	"repro/internal/core"
	"repro/internal/prog"
	"repro/internal/rank"
	"repro/internal/report"
	"repro/internal/workload"
)

// residentReports renders, as /v1/reports?format=text does, what
// engines that retire nothing report: one core.Engine per default
// checker over one prog.Build, nobody calling SetRetire.
func residentReports(t *testing.T, srcs map[string]string) string {
	t.Helper()
	p, err := prog.BuildSource(srcs)
	if err != nil {
		t.Fatal(err)
	}
	var all []*report.Report
	for _, name := range []string{"free", "lock", "null"} {
		c, err := checkers.Parse(name)
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, core.NewEngine(p, c, core.DefaultOptions()).RunContext(context.Background()).Reports...)
	}
	var sb strings.Builder
	for _, rep := range rank.Generic(all) {
		fmt.Fprintln(&sb, rep)
	}
	return sb.String()
}

// Every run of the daemon retires what it has finished with: the analyze
// response carries the run's SpillStats, /v1/stats accumulates them
// across runs, and /v1/metrics exports them as counters. Reports must
// match those of engines that retire nothing byte for byte.
func TestDaemonStreaming(t *testing.T) {
	srcs, _ := workload.MixedTree(2, 10, 7)
	ts := httptest.NewServer(New(Config{}).Handler())
	t.Cleanup(ts.Close)
	first := postAnalyze(t, ts, AnalyzeRequest{Files: srcs})
	if first.Spill == nil || first.Spill.Evictions == 0 || first.Spill.ASTsReleased == 0 {
		t.Fatalf("the run retired nothing: %+v", first.Spill)
	}
	want := residentReports(t, srcs)
	if _, got := getBody(t, ts.URL+"/v1/reports?format=text"); got != want || got == "" {
		t.Errorf("the daemon's reports differ from the resident engines':\n daemon:\n%s\n resident:\n%s", got, want)
	}

	// A second run replays from the daemon's resident cache: no live
	// engines, so no new evictions, and no body parsed, so no AST to
	// release. /v1/stats keeps the cumulative totals.
	second := postAnalyze(t, ts, AnalyzeRequest{})
	if second.Spill == nil || second.Spill.ASTsReleased != 0 || second.Incr == nil || second.Incr.BodiesParsed != 0 {
		t.Errorf("replayed run reported %+v, %+v; want no body parsed or released", second.Spill, second.Incr)
	}
	stats := getStats(t, ts.URL)
	if want := first.Spill.ASTsReleased + second.Spill.ASTsReleased; stats["asts_released"] != float64(want) {
		t.Errorf("stats asts_released = %v after two runs; want %d (cumulative)",
			stats["asts_released"], want)
	}
	if want := first.Spill.Evictions + second.Spill.Evictions; stats["spill_evictions"] != float64(want) {
		t.Errorf("stats evictions = %v; want %d", stats["spill_evictions"], want)
	}
	if _, statsBody := getBody(t, ts.URL+"/v1/stats"); strings.Contains(statsBody, "max_resident") {
		t.Errorf("/v1/stats still reports the deleted switch: %s", statsBody)
	}

	_, metrics := getBody(t, ts.URL+"/v1/metrics")
	for _, name := range []string{
		"xgccd_spill_evictions_total",
		"xgccd_asts_released_total",
	} {
		if !strings.Contains(metrics, name) {
			t.Errorf("metrics missing %s", name)
		}
	}
}

// TestMetricsCacheCountersAccumulate: every request builds a fresh
// analyzer, so a run's store traffic is that run's alone; the series
// typed counter are sums over all runs and never fall between scrapes.
func TestMetricsCacheCountersAccumulate(t *testing.T) {
	srcs, _ := workload.MixedTree(2, 10, 7)
	ts := httptest.NewServer(New(Config{}).Handler())
	t.Cleanup(ts.Close)
	series := []string{"xgccd_cache_hits_total", "xgccd_cache_misses_total", "xgccd_cache_puts_total", "xgccd_cache_put_errors"}
	scrape := func() map[string]int64 {
		_, metrics := getBody(t, ts.URL+"/v1/metrics")
		out := map[string]int64{}
		for _, name := range series {
			if !strings.Contains(metrics, "# TYPE "+name+" counter\n") {
				t.Fatalf("%s is not typed counter:\n%s", name, metrics)
			}
			var v int64
			if _, err := fmt.Sscanf(metrics[strings.Index(metrics, "\n"+name+" ")+1:], name+" %d", &v); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			out[name] = v
		}
		return out
	}
	perRun := func(r AnalyzeResponse) map[string]int64 {
		return map[string]int64{series[0]: r.Incr.CacheHits, series[1]: r.Incr.CacheMisses, series[2]: r.Incr.CachePuts, series[3]: r.Incr.CachePutErrors}
	}
	cold := perRun(postAnalyze(t, ts, AnalyzeRequest{Files: srcs}))
	after1 := scrape()
	warm := perRun(postAnalyze(t, ts, AnalyzeRequest{}))
	after2 := scrape()
	if cold[series[1]] == 0 || cold[series[2]] == 0 || warm[series[0]] == 0 || warm[series[2]] >= cold[series[2]] {
		t.Fatalf("cold run %v, warm run %v: want misses and puts, then hits and fewer puts", cold, warm)
	}
	for _, name := range series {
		if after1[name] != cold[name] || after2[name] != cold[name]+warm[name] || after2[name] < after1[name] {
			t.Errorf("%s: %d after one run, %d after two; the runs did %d and %d", name, after1[name], after2[name], cold[name], warm[name])
		}
	}
}
