package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"repro/internal/cache"
	"strings"
	"sync"
	"testing"

	"repro/internal/workload"
)

func postAnalyze(t *testing.T, ts *httptest.Server, req AnalyzeRequest) AnalyzeResponse {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(ts.URL+"/v1/analyze", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var sb strings.Builder
		buf := make([]byte, 4096)
		n, _ := resp.Body.Read(buf)
		sb.Write(buf[:n])
		t.Fatalf("analyze: status %d: %s", resp.StatusCode, sb.String())
	}
	var out AnalyzeResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out
}

func getBody(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sb strings.Builder
	buf := make([]byte, 1<<16)
	for {
		n, err := resp.Body.Read(buf)
		sb.Write(buf[:n])
		if err != nil {
			break
		}
	}
	return resp.StatusCode, sb.String()
}

// getStats decodes GET /v1/stats: flat counters as float64, nested
// objects as maps.
func getStats(t *testing.T, base string) map[string]any {
	t.Helper()
	code, body := getBody(t, base+"/v1/stats")
	if code != http.StatusOK {
		t.Fatalf("stats: status %d: %.200s", code, body)
	}
	var st map[string]any
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatal(err)
	}
	return st
}

func TestDaemonSession(t *testing.T) {
	srv := New(Config{Checkers: []string{"free", "lock", "null", "leak", "interrupt"}, Jobs: 2})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Reports before any analysis: 404.
	if code, _ := getBody(t, ts.URL+"/v1/reports"); code != http.StatusNotFound {
		t.Errorf("reports before analysis: status %d", code)
	}

	// Cold analyze of the whole tree.
	srcs, _ := workload.MixedTree(3, 10, 2002)
	cold := postAnalyze(t, ts, AnalyzeRequest{Files: srcs})
	if cold.Reports == 0 {
		t.Fatal("cold run found no reports")
	}
	if cold.Incr == nil || cold.Incr.UnitsReplayed != 0 {
		t.Fatalf("cold run incr stats wrong: %+v", cold.Incr)
	}

	// Push one edited file: most units replay, output count identical
	// shape (a body tweak adds no bug).
	edited := workload.TweakBody("tree_0.c").Apply(srcs)
	warm := postAnalyze(t, ts, AnalyzeRequest{Files: map[string]string{"tree_0.c": edited["tree_0.c"]}})
	if warm.Reports != cold.Reports {
		t.Errorf("warm reports = %d, cold = %d", warm.Reports, cold.Reports)
	}
	if warm.Incr.UnitsReplayed == 0 {
		t.Error("warm run replayed nothing")
	}
	if warm.Incr.FuncsAnalyzedLive >= cold.Incr.FuncsAnalyzedLive {
		t.Errorf("warm live analyses %d not below cold %d",
			warm.Incr.FuncsAnalyzedLive, cold.Incr.FuncsAnalyzedLive)
	}
	if warm.Incr.FilesReparsed != len(srcs) {
		t.Errorf("warm run parsed %d files; pass 1 parses the whole resident tree, %d", warm.Incr.FilesReparsed, len(srcs))
	}

	// Reports endpoint: json and text, generic and z ranking.
	code, body := getBody(t, ts.URL+"/v1/reports")
	if code != http.StatusOK || !strings.Contains(body, "\"pos\"") {
		t.Errorf("reports json: %d %.120s", code, body)
	}
	code, body = getBody(t, ts.URL+"/v1/reports?format=text&rank=z")
	if code != http.StatusOK || !strings.Contains(body, "use") && !strings.Contains(body, "free") {
		t.Errorf("reports text: %d %.120s", code, body)
	}

	// Stats endpoint.
	code, body = getBody(t, ts.URL+"/v1/stats")
	if code != http.StatusOK || !strings.Contains(body, "\"analyses\": 2") {
		t.Errorf("stats: %d %.200s", code, body)
	}

	// Metrics endpoint: Prometheus text with the headline series.
	code, body = getBody(t, ts.URL+"/v1/metrics")
	if code != http.StatusOK {
		t.Fatalf("metrics: status %d", code)
	}
	for _, want := range []string{
		"xgccd_requests_total",
		"xgccd_cache_hits_total",
		"xgccd_funcs_invalidated",
		"xgccd_units_replayed",
		"xgccd_phase_analyze_seconds",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %s", want)
		}
	}

	// Remove a file; the tree shrinks and analysis still succeeds.
	rm := postAnalyze(t, ts, AnalyzeRequest{Remove: []string{"tree_2.c"}})
	if rm.Files != 2 {
		t.Errorf("after remove: %d files", rm.Files)
	}
}

// TestDaemonDiskStoreStats: over a disk store (xgccd -cache) the stats
// and metrics endpoints carry the failed-write counter and the store's
// own shape, and a second daemon on the same directory replays the
// first one's work while the first is still up.
func TestDaemonDiskStoreStats(t *testing.T) {
	dir := t.TempDir()
	srcs, _ := workload.MixedTree(2, 6, 2002)
	for i, wantReplay := range []bool{false, true} {
		ds, err := cache.NewDirStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		srv := New(Config{Checkers: []string{"free", "lock"}, Jobs: 2, Store: ds})
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close() // so the first daemon, and its store handle, outlive the second
		got := postAnalyze(t, ts, AnalyzeRequest{Files: srcs})
		if got.Incr == nil || (got.Incr.UnitsLive == 0) != wantReplay {
			t.Fatalf("daemon %d: units live=%d replayed=%d, want full replay=%v", i, got.Incr.UnitsLive, got.Incr.UnitsReplayed, wantReplay)
		}
		_, stats := getBody(t, ts.URL+"/v1/stats")
		if !strings.Contains(stats, `"cache_put_errors": 0`) || !strings.Contains(stats, `"store": {`) || !strings.Contains(stats, `"live_bytes"`) {
			t.Errorf("daemon %d: stats lack the store section: %.600s", i, stats)
		}
		_, metrics := getBody(t, ts.URL+"/v1/metrics")
		for _, want := range []string{"xgccd_cache_put_errors 0", "xgccd_store_records ", "xgccd_store_live_bytes ", "xgccd_store_superseded_bytes 0"} {
			if !strings.Contains(metrics, want) {
				t.Errorf("daemon %d: metrics missing %q", i, want)
			}
		}
	}
}

func TestDaemonRejectsBadRequests(t *testing.T) {
	srv := New(Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// GET /v1/analyze is a method error.
	if code, _ := getBody(t, ts.URL+"/v1/analyze"); code != http.StatusMethodNotAllowed {
		t.Errorf("GET analyze: %d", code)
	}
	// Empty tree is a 400.
	body, _ := json.Marshal(AnalyzeRequest{})
	resp, err := http.Post(ts.URL+"/v1/analyze", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty analyze: %d", resp.StatusCode)
	}
	// Unparseable C is a 422, and the daemon survives it.
	r2 := postJSONStatus(t, ts.URL+"/v1/analyze", `{"files": {"bad.c": "int ("}}`)
	if r2 != http.StatusUnprocessableEntity {
		t.Errorf("bad C: %d", r2)
	}
	r3 := postJSONStatus(t, ts.URL+"/v1/analyze", `{"files": {"ok.c": "void f(void) { }"}}`)
	if r3 != http.StatusOK {
		t.Errorf("after bad C, good C: %d", r3)
	}
}

func postJSONStatus(t *testing.T, url, body string) int {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

// TestReportsReadWhileCommitting: /v1/reports ranks and renders the
// committed result outside the server mutex while later analyze
// requests commit their own (run it under -race).
func TestReportsReadWhileCommitting(t *testing.T) {
	srv := New(Config{Checkers: []string{"free"}})
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
