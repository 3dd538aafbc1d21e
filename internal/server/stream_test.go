package server

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/workload"
)

// A daemon configured with MaxResidentMB > 0 streams every run: the
// analyze response carries per-run SpillStats, /v1/stats accumulates
// them across runs, and /v1/metrics exports them as counters. Reports
// must match a non-streaming daemon's byte for byte.
func TestDaemonStreaming(t *testing.T) {
	srcs, _ := workload.MixedTree(2, 10, 7)

	run := func(maxMB int) (*httptest.Server, AnalyzeResponse) {
		srv := New(Config{MaxResidentMB: maxMB})
		ts := httptest.NewServer(srv.Handler())
		t.Cleanup(ts.Close)
		return ts, postAnalyze(t, ts, AnalyzeRequest{Files: srcs})
	}
	tsOff, off := run(0)
	tsOn, on := run(64)

	if off.Spill != nil {
		t.Error("non-streaming daemon reported SpillStats")
	}
	if on.Spill == nil {
		t.Fatal("streaming daemon reported no SpillStats")
	}
	if on.Spill.Evictions == 0 || on.Spill.ASTsReleased == 0 {
		t.Errorf("streaming did not engage: %+v", on.Spill)
	}

	_, offReports := getBody(t, tsOff.URL+"/v1/reports?format=text")
	_, onReports := getBody(t, tsOn.URL+"/v1/reports?format=text")
	if offReports != onReports {
		t.Errorf("streaming daemon's reports differ:\n off:\n%s\n on:\n%s", offReports, onReports)
	}

	// A second run replays from the daemon's resident cache (no live
	// engines, so no new evictions) but still streams — it reports
	// SpillStats and releases the rebuilt ASTs — and /v1/stats keeps
	// the cumulative totals.
	second := postAnalyze(t, tsOn, AnalyzeRequest{})
	if second.Spill == nil || second.Spill.ASTsReleased == 0 {
		t.Errorf("replayed streaming run reported %+v; want AST releases", second.Spill)
	}
	_, statsBody := getBody(t, tsOn.URL+"/v1/stats")
	var stats StatsResponse
	if err := json.Unmarshal([]byte(statsBody), &stats); err != nil {
		t.Fatal(err)
	}
	if want := on.Spill.ASTsReleased + second.Spill.ASTsReleased; stats.ASTsReleased != want {
		t.Errorf("stats asts_released = %d after two runs; want %d (cumulative)",
			stats.ASTsReleased, want)
	}
	if stats.SpillEvictions != on.Spill.Evictions+second.Spill.Evictions {
		t.Errorf("stats evictions = %d; want %d",
			stats.SpillEvictions, on.Spill.Evictions+second.Spill.Evictions)
	}
	if stats.MaxResidentMB != 64 {
		t.Errorf("stats max_resident_mb = %d; want 64", stats.MaxResidentMB)
	}

	_, metrics := getBody(t, tsOn.URL+"/v1/metrics")
	for _, name := range []string{
		"xgccd_spill_evictions_total",
		"xgccd_asts_released_total",
	} {
		if !strings.Contains(metrics, name) {
			t.Errorf("metrics missing %s", name)
		}
	}
}
