package server

// Tests for the feasibility pass behind the daemon (DESIGN.md §13):
// verdicts in the analyze reply, /v1/reports verdict filtering,
// counters, and the invariant that the pass never changes the report
// set.

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

// feasSrc seeds one interval false positive (n>5 then n<3 survives
// the tier-1 pruner) and two true positives.
const feasSrc = `
void kfree(void *p);
int fp_interval(int n, int *p) {
    if (n > 5) kfree(p);
    if (n < 3) return *p;
    return 0;
}
int tp_guarded(int n, int *p) {
    if (n > 5) kfree(p);
    if (n > 2) return *p;
    return 0;
}
int tp_plain(int *p) {
    kfree(p);
    return *p;
}
`

// TestVerifyInRequest: with Config.Verify the analyze reply itself
// carries every verdict; /v1/reports filters by them, and the verdict
// counters on /v1/stats and /v1/metrics are the run's.
func TestVerifyInRequest(t *testing.T) {
	srv := New(Config{Checkers: []string{"free"}, Verify: true})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp := postAnalyze(t, ts, AnalyzeRequest{Files: map[string]string{"drv.c": feasSrc}})
	if resp.Reports != 3 {
		t.Fatalf("reports = %d, want 3", resp.Reports)
	}
	want := map[string]string{
		"fp_interval": "infeasible",
		"tp_guarded":  "confirmed",
		"tp_plain":    "confirmed",
	}
	for _, r := range resp.Ranked {
		if r.Verdict != want[r.Func] {
			t.Errorf("analyze reply: %s verdict = %q (%s), want %q", r.Func, r.Verdict, r.VerdictWhy, want[r.Func])
		}
	}

	for filter, want := range map[string]int{
		"infeasible": 1,
		"confirmed":  2,
		"unknown":    0,
		"unverified": 0,
	} {
		_, filtered := getBody(t, ts.URL+"/v1/reports?verdict="+filter)
		if got := strings.Count(filtered, `"pos"`); got != want {
			t.Errorf("?verdict=%s returned %d reports, want %d:\n%s", filter, got, want, filtered)
		}
	}
	if code, _ := getBody(t, ts.URL+"/v1/reports?verdict=bogus"); code != 400 {
		t.Errorf("bogus verdict filter: status %d, want 400", code)
	}

	_, stats := getBody(t, ts.URL+"/v1/stats")
	for _, c := range []string{`"done": 3`, `"confirmed": 2`, `"infeasible": 1`, `"unknown": 0`} {
		if !strings.Contains(stats, c) {
			t.Errorf("stats missing %s:\n%s", c, stats)
		}
	}
	_, metrics := getBody(t, ts.URL+"/v1/metrics")
	for _, c := range []string{"xgccd_feas_done_total 3", "xgccd_feas_confirmed_total 2",
		"xgccd_feas_infeasible_total 1", "xgccd_feas_unknown_total 0"} {
		if !strings.Contains(metrics, c+"\n") {
			t.Errorf("metrics missing %s:\n%s", c, metrics)
		}
	}
}

// TestReportsReadWhileVerifying: /v1/reports ranks and renders the
// committed result outside the server mutex while later analyze
// requests verify and commit their own (run it under -race).
func TestReportsReadWhileVerifying(t *testing.T) {
	srv := New(Config{Checkers: []string{"free"}, Verify: true})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	postAnalyze(t, ts, AnalyzeRequest{Files: map[string]string{"drv.c": feasSrc}})

	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 5; j++ {
				resp, err := http.Get(ts.URL + "/v1/reports?rank=z")
				if err != nil {
					t.Error(err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("reports: status %d", resp.StatusCode)
				}
			}
		}()
	}
	for i := 0; i < 3; i++ {
		postAnalyze(t, ts, AnalyzeRequest{Files: map[string]string{"drv.c": feasSrc + fmt.Sprintf("int pad%d;\n", i)}})
	}
	wg.Wait()
}

// TestVerifyNeverChangesReportSet: the verdict pass annotates; the
// report set (positions + messages) must be identical with the
// pipeline on and off.
func TestVerifyNeverChangesReportSet(t *testing.T) {
	collect := func(verify bool) map[string]bool {
		srv := New(Config{Checkers: []string{"free"}, Verify: verify})
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		resp := postAnalyze(t, ts, AnalyzeRequest{Files: map[string]string{"drv.c": feasSrc}})
		set := map[string]bool{}
		for _, r := range resp.Ranked {
			set[r.Pos+"|"+r.Msg] = true
		}
		return set
	}
	on, off := collect(true), collect(false)
	if len(on) != len(off) {
		t.Fatalf("report sets differ: %d with verify, %d without", len(on), len(off))
	}
	for k := range on {
		if !off[k] {
			t.Errorf("report %q only present with verify on", k)
		}
	}
}
