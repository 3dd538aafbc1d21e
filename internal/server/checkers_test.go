package server

// Checker-platform tests (DESIGN.md §14): the /v1/checkers admission
// pipeline, hot-reload on the analyze path, registry persistence
// through a daemon "restart", and isolation — a buggy checker is a
// structured rejection while analyze requests keep succeeding.
// Everything here must hold under -race.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/registry"
	"repro/mc"
)

// uafChecker v1 reports use-after-free only.
const uafCheckerV1 = `
sm uaf_checker;
state decl any_pointer v;

start:
    { kfree(v) } ==> v.freed
;

v.freed:
    { *v } ==> v.stop, { err("use after free"); }
;
`

// uafChecker v2 adds double-free reporting — enabling it must change
// only this checker's reports.
const uafCheckerV2 = `
sm uaf_checker;
state decl any_pointer v;

start:
    { kfree(v) } ==> v.freed
;

v.freed:
    { *v }       ==> v.stop, { err("use after free"); }
  | { kfree(v) } ==> v.stop, { err("double free"); }
;
`

// overReporter flags every call: the harness must reject it.
const overReporterSrc = `
sm eager_checker;
decl any_fn_call fn;
decl any_arguments args;

start:
    { fn(args) } ==> start, { err("call looks suspicious"); }
;
`

const platformSrc = `
void kfree(void *p);
int printk(const char *fmt, ...);
int use_after(int *p) {
    kfree(p);
    return *p;
}
void double_free(int *p) {
    kfree(p);
    kfree(p);
}
int chatty(int n) {
    printk("a %d", n);
    printk("b %d", n);
    printk("c %d", n);
    return n;
}
`

func doJSON(t *testing.T, method, url string, body interface{}) (int, []byte) {
	t.Helper()
	var rd *bytes.Reader
	if body != nil {
		raw, _ := json.Marshal(body)
		rd = bytes.NewReader(raw)
	} else {
		rd = bytes.NewReader(nil)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return resp.StatusCode, buf.Bytes()
}

// upload + validate + enable, failing the test on any unexpected
// status. Returns the checker ID.
func admitChecker(t *testing.T, ts *httptest.Server, src string) string {
	t.Helper()
	code, body := doJSON(t, "POST", ts.URL+"/v1/checkers", UploadRequest{Source: src})
	if code != http.StatusCreated && code != http.StatusOK {
		t.Fatalf("upload: status %d: %s", code, body)
	}
	var e CheckerJSON
	json.Unmarshal(body, &e)
	code, body = doJSON(t, "POST", ts.URL+"/v1/checkers/"+e.ID+"/validate", nil)
	if code != http.StatusOK {
		t.Fatalf("validate: status %d: %s", code, body)
	}
	code, body = doJSON(t, "POST", ts.URL+"/v1/checkers/"+e.ID+"/enable", nil)
	if code != http.StatusOK {
		t.Fatalf("enable: status %d: %s", code, body)
	}
	return e.ID
}

func analyzeReports(t *testing.T, ts *httptest.Server, req AnalyzeRequest) AnalyzeResponse {
	t.Helper()
	raw, _ := json.Marshal(req)
	resp, err := http.Post(ts.URL+"/v1/analyze", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		t.Fatalf("analyze: status %d: %s", resp.StatusCode, buf.String())
	}
	var out AnalyzeResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out
}

// reportKey renders a report deterministically for byte-identity
// comparison across runs.
func renderByChecker(resp AnalyzeResponse) map[string][]string {
	out := map[string][]string{}
	for _, r := range resp.Ranked {
		out[r.Checker] = append(out[r.Checker], r.Text)
	}
	return out
}

// TestCheckerLifecycleAndHotReload pins the tentpole: upload a
// checker, watch it rejected for enablement while pending, validate,
// enable, and see its reports appear on the next analyze — no restart,
// resident tree intact. Then upgrade to v2 and verify only the new
// checker's reports changed while the bundled checker replays
// byte-identically from cache.
func TestCheckerLifecycleAndHotReload(t *testing.T) {
	for _, jobs := range []int{1, 8} {
		t.Run(fmt.Sprintf("j%d", jobs), func(t *testing.T) {
			srv := New(Config{Checkers: []string{"free"}, Jobs: jobs})
			ts := httptest.NewServer(srv.Handler())
			defer ts.Close()

			base := analyzeReports(t, ts, AnalyzeRequest{Files: map[string]string{"p.c": platformSrc}})
			if base.Reports == 0 {
				t.Fatal("bundled checker found nothing")
			}
			baseByChecker := renderByChecker(base)

			// Upload; enabling before validation must 409.
			code, body := doJSON(t, "POST", ts.URL+"/v1/checkers", UploadRequest{Source: uafCheckerV1})
			if code != http.StatusCreated {
				t.Fatalf("upload: status %d: %s", code, body)
			}
			var e CheckerJSON
			json.Unmarshal(body, &e)
			if e.Status != registry.StatusPending || e.Version != 1 {
				t.Fatalf("uploaded entry: %+v", e)
			}
			if code, body = doJSON(t, "POST", ts.URL+"/v1/checkers/"+e.ID+"/enable", nil); code != http.StatusConflict {
				t.Fatalf("enable before validation: status %d: %s", code, body)
			}

			// Validate: admitted, with a verdict attached.
			code, body = doJSON(t, "POST", ts.URL+"/v1/checkers/"+e.ID+"/validate", nil)
			if code != http.StatusOK || !strings.Contains(string(body), `"admitted"`) {
				t.Fatalf("validate: status %d: %s", code, body)
			}
			if code, body = doJSON(t, "POST", ts.URL+"/v1/checkers/"+e.ID+"/enable", nil); code != http.StatusOK {
				t.Fatalf("enable: status %d: %s", code, body)
			}

			// Hot-reload: the very next analyze runs the new checker.
			v1run := analyzeReports(t, ts, AnalyzeRequest{})
			v1ByChecker := renderByChecker(v1run)
			if len(v1ByChecker["uaf_checker"]) == 0 {
				t.Fatalf("enabled checker emitted nothing: %+v", v1run.Ranked)
			}
			if got, want := v1ByChecker["free_checker"], baseByChecker["free_checker"]; !equalStrings(got, want) {
				t.Errorf("bundled reports changed across reload:\n%v\n%v", got, want)
			}
			if v1run.Incr == nil || v1run.Incr.UnitsReplayed == 0 {
				t.Errorf("unchanged checker did not replay from cache: %+v", v1run.Incr)
			}

			// Upgrade to v2: one upload+validate+enable; v1 is
			// superseded automatically.
			id2 := admitChecker(t, ts, uafCheckerV2)
			v2run := analyzeReports(t, ts, AnalyzeRequest{})
			v2ByChecker := renderByChecker(v2run)
			if len(v2ByChecker["uaf_checker"]) <= len(v1ByChecker["uaf_checker"]) {
				t.Errorf("v2 (double-free aware) did not add reports: v1=%v v2=%v",
					v1ByChecker["uaf_checker"], v2ByChecker["uaf_checker"])
			}
			if got, want := v2ByChecker["free_checker"], baseByChecker["free_checker"]; !equalStrings(got, want) {
				t.Errorf("bundled reports changed across upgrade:\n%v\n%v", got, want)
			}

			// Exactly one version of the name is active.
			code, body = doJSON(t, "GET", ts.URL+"/v1/checkers", nil)
			if code != http.StatusOK {
				t.Fatalf("list: status %d", code)
			}
			var list []CheckerJSON
			json.Unmarshal(body, &list)
			enabledCount := 0
			for _, c := range list {
				if c.Enabled {
					enabledCount++
					if c.ID != id2 {
						t.Errorf("wrong version enabled: %+v", c)
					}
				}
			}
			if enabledCount != 1 {
				t.Errorf("enabled versions = %d, want 1", enabledCount)
			}

			// Reload counters observed the two active-set changes.
			st := getStats(t, ts.URL)
			if st["checker_reloads"] != 2.0 {
				t.Errorf("checker_reloads = %v, want 2", st["checker_reloads"])
			}
			if st["validations_admitted"] != 2.0 || st["validations_rejected"] != 0.0 {
				t.Errorf("validations = %v/%v, want 2/0", st["validations_admitted"], st["validations_rejected"])
			}
		})
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestBuggyCheckerIsVerdictNotOutage pins the ISSUE's isolation
// criterion: an over-reporting checker validates to a structured
// rejection with a negative z-score, cannot be enabled, and while its
// validation runs, analyze requests keep succeeding.
func TestBuggyCheckerIsVerdictNotOutage(t *testing.T) {
	srv := New(Config{Checkers: []string{"free"}, MaxInFlight: 8})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	code, body := doJSON(t, "POST", ts.URL+"/v1/checkers", UploadRequest{Source: overReporterSrc})
	if code != http.StatusCreated {
		t.Fatalf("upload: status %d: %s", code, body)
	}
	var e CheckerJSON
	json.Unmarshal(body, &e)

	// Analyze concurrently with the validation.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 3; i++ {
			analyzeReports(t, ts, AnalyzeRequest{Files: map[string]string{"p.c": platformSrc}})
		}
	}()
	code, body = doJSON(t, "POST", ts.URL+"/v1/checkers/"+e.ID+"/validate", nil)
	wg.Wait()
	if code != http.StatusOK {
		t.Fatalf("validate: status %d: %s", code, body)
	}
	var vr struct {
		Status  string `json:"status"`
		Verdict struct {
			Z              float64  `json:"z"`
			Reasons        []string `json:"reasons"`
			FalsePositives int      `json:"false_positives"`
		} `json:"verdict"`
	}
	if err := json.Unmarshal(body, &vr); err != nil {
		t.Fatal(err)
	}
	if vr.Status != "rejected" || vr.Verdict.Z >= 0 || vr.Verdict.FalsePositives == 0 {
		t.Fatalf("over-reporter verdict: %s", body)
	}

	// Rejected checkers cannot be enabled.
	if code, _ := doJSON(t, "POST", ts.URL+"/v1/checkers/"+e.ID+"/enable", nil); code != http.StatusConflict {
		t.Errorf("enable of rejected checker: status %d", code)
	}

	// The daemon is alive and the rejection is counted.
	if st := getStats(t, ts.URL); st["validations_rejected"] != 1.0 {
		t.Errorf("validations_rejected = %v, want 1", st["validations_rejected"])
	}
}

// TestHotReloadUnderConcurrentAnalyze drives analyze traffic from two
// goroutines while a third flips a checker on and off — the race
// detector guards the registry/analyze interleaving, and every
// response must be internally consistent (the flipped checker's
// reports are either all present or all absent).
func TestHotReloadUnderConcurrentAnalyze(t *testing.T) {
	srv := New(Config{Checkers: []string{"free"}, Jobs: 2, MaxInFlight: 16})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	seed := analyzeReports(t, ts, AnalyzeRequest{Files: map[string]string{"p.c": platformSrc}})
	baseFree := renderByChecker(seed)["free_checker"]

	// The flipped checker's full report set, taken with it on.
	id := admitChecker(t, ts, uafCheckerV1)
	allUAF := renderByChecker(analyzeReports(t, ts, AnalyzeRequest{}))["uaf_checker"]
	if len(allUAF) == 0 {
		t.Fatal("enabled checker emitted nothing")
	}
	if code, body := doJSON(t, "POST", ts.URL+"/v1/checkers/"+id+"/disable", nil); code != http.StatusOK {
		t.Fatalf("disable: status %d: %s", code, body)
	}

	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 6; i++ {
				by := renderByChecker(analyzeReports(t, ts, AnalyzeRequest{}))
				if !equalStrings(by["free_checker"], baseFree) {
					t.Errorf("bundled reports drifted mid-reload:\n%v\n%v", by["free_checker"], baseFree)
				}
				if got := by["uaf_checker"]; len(got) != 0 && !equalStrings(got, allUAF) {
					t.Errorf("flipped checker's reports are partial:\n%v\nwant none or\n%v", got, allUAF)
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 6; i++ {
			if code, body := doJSON(t, "POST", ts.URL+"/v1/checkers/"+id+"/enable", nil); code != http.StatusOK {
				t.Errorf("enable: status %d: %s", code, body)
			}
			if code, body := doJSON(t, "POST", ts.URL+"/v1/checkers/"+id+"/disable", nil); code != http.StatusOK {
				t.Errorf("disable: status %d: %s", code, body)
			}
		}
	}()
	wg.Wait()
}

// TestReloadCountsTheLoadedSet: checker_reloads compares the sets runs
// loaded, not the registry as it stands when a run ends. Three runs
// all load the empty set; an enable lands inside run 2, after its
// registry read, and a disable follows it. No run loaded a different
// set, so the count stays 0.
func TestReloadCountsTheLoadedSet(t *testing.T) {
	srv := New(Config{Checkers: []string{"free"}})
	e, _, err := srv.cfg.Registry.Upload(uafCheckerV1)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.cfg.Registry.SetVerdict(e.ID, true, nil); err != nil {
		t.Fatal(err)
	}
	var runs atomic.Int32
	srv.testRunHook = func(context.Context) {
		if runs.Add(1) == 2 {
			if err := srv.cfg.Registry.SetEnabled(e.ID, true); err != nil {
				t.Error(err)
			}
		}
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	for run := 1; run <= 3; run++ {
		resp := analyzeReports(t, ts, AnalyzeRequest{Files: map[string]string{"p.c": platformSrc}})
		if got := renderByChecker(resp)["uaf_checker"]; len(got) != 0 {
			t.Errorf("run %d ran a checker it did not load: %v", run, got)
		}
		if run == 2 {
			if on, _ := srv.cfg.Registry.Enabled(); len(on) != 1 {
				t.Fatalf("the mid-run enable did not land: %+v", on)
			}
			if code, body := doJSON(t, "POST", ts.URL+"/v1/checkers/"+e.ID+"/disable", nil); code != http.StatusOK {
				t.Fatalf("disable: status %d: %s", code, body)
			}
		}
	}
	if st := getStats(t, ts.URL); st["checker_reloads"] != 0.0 {
		t.Errorf("checker_reloads = %v, want 0: every run loaded the empty set", st["checker_reloads"])
	}
}

// TestRegistryPersistenceAcrossDaemonRestart: a daemon over an
// on-disk registry is stopped and a new one opened over the same
// directory — uploads, verdicts, and the enabled set are all
// intact, and the enabled checker runs in the first analyze of the
// new daemon.
func TestRegistryPersistenceAcrossDaemonRestart(t *testing.T) {
	dir := t.TempDir()
	reg1, err := registry.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	srv1 := New(Config{Checkers: []string{"free"}, Registry: reg1})
	ts1 := httptest.NewServer(srv1.Handler())
	id := admitChecker(t, ts1, uafCheckerV1)
	ts1.Close()

	reg2, err := registry.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	srv2 := New(Config{Checkers: []string{"free"}, Registry: reg2})
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()

	code, body := doJSON(t, "GET", ts2.URL+"/v1/checkers", nil)
	if code != http.StatusOK {
		t.Fatalf("list after restart: status %d", code)
	}
	var list []CheckerJSON
	json.Unmarshal(body, &list)
	if len(list) != 1 || list[0].ID != id || list[0].Status != registry.StatusAdmitted || !list[0].Enabled {
		t.Fatalf("registry state lost across restart: %s", body)
	}

	resp := analyzeReports(t, ts2, AnalyzeRequest{Files: map[string]string{"p.c": platformSrc}})
	if len(renderByChecker(resp)["uaf_checker"]) == 0 {
		t.Errorf("restored enabled checker emitted nothing: %+v", resp.Ranked)
	}
}

// TestCheckerCRUDErrors sweeps the error envelope across the checker
// routes: bad upload bodies, unknown IDs, and wrong methods all come
// back as {code, message, details}.
func TestCheckerCRUDErrors(t *testing.T) {
	srv := New(Config{Checkers: []string{"free"}})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	cases := []struct {
		method, path string
		body         interface{}
		wantStatus   int
		wantCode     string
	}{
		{"POST", "/v1/checkers", map[string]string{"source": "sm broken; not metal"}, http.StatusBadRequest, "checker_invalid"},
		{"POST", "/v1/checkers", map[string]string{}, http.StatusBadRequest, "bad_request"},
		{"GET", "/v1/checkers/nope", nil, http.StatusNotFound, "not_found"},
		{"POST", "/v1/checkers/nope/validate", nil, http.StatusNotFound, "not_found"},
		{"POST", "/v1/checkers/nope/enable", nil, http.StatusNotFound, "not_found"},
		{"POST", "/v1/checkers/nope/disable", nil, http.StatusNotFound, "not_found"},
		{"DELETE", "/v1/checkers/nope", nil, http.StatusNotFound, "not_found"},
		{"PUT", "/v1/checkers", nil, http.StatusMethodNotAllowed, "method_not_allowed"},
		{"PATCH", "/v1/checkers/x/validate", nil, http.StatusMethodNotAllowed, "method_not_allowed"},
		{"POST", "/v1/stats", nil, http.StatusMethodNotAllowed, "method_not_allowed"},
		{"DELETE", "/v1/metrics", nil, http.StatusMethodNotAllowed, "method_not_allowed"},
		{"PUT", "/v1/reports", nil, http.StatusMethodNotAllowed, "method_not_allowed"},
		{"GET", "/v1/analyze", nil, http.StatusMethodNotAllowed, "method_not_allowed"},
	}
	for _, tc := range cases {
		code, body := doJSON(t, tc.method, ts.URL+tc.path, tc.body)
		if code != tc.wantStatus {
			t.Errorf("%s %s: status %d, want %d (%s)", tc.method, tc.path, code, tc.wantStatus, body)
			continue
		}
		var env ErrorEnvelope
		if err := json.Unmarshal(body, &env); err != nil || env.Code != tc.wantCode {
			t.Errorf("%s %s: envelope %s, want code %q", tc.method, tc.path, body, tc.wantCode)
		}
	}
	// HEAD carries no body, so only its status is pinned: refused where
	// GET is hand-served, answered where the /v1/checkers GET routes are.
	for path, want := range map[string]int{
		"/v1/reports": http.StatusMethodNotAllowed, "/v1/stats": http.StatusMethodNotAllowed,
		"/v1/metrics": http.StatusMethodNotAllowed, "/v1/checkers": http.StatusOK,
	} {
		if code, _ := doJSON(t, "HEAD", ts.URL+path, nil); code != want {
			t.Errorf("HEAD %s: status %d, want %d", path, code, want)
		}
	}

	// Upload is idempotent by content: second POST returns 200, same ID.
	c1, b1 := doJSON(t, "POST", ts.URL+"/v1/checkers", UploadRequest{Source: uafCheckerV1})
	c2, b2 := doJSON(t, "POST", ts.URL+"/v1/checkers", UploadRequest{Source: uafCheckerV1})
	if c1 != http.StatusCreated || c2 != http.StatusOK {
		t.Fatalf("idempotent upload: %d then %d", c1, c2)
	}
	var e1, e2 CheckerJSON
	json.Unmarshal(b1, &e1)
	json.Unmarshal(b2, &e2)
	if e1.ID != e2.ID {
		t.Errorf("duplicate upload changed ID: %s vs %s", e1.ID, e2.ID)
	}

	// Delete removes it from the list.
	if code, body := doJSON(t, "DELETE", ts.URL+"/v1/checkers/"+e1.ID, nil); code != http.StatusOK {
		t.Fatalf("delete: status %d: %s", code, body)
	}
	code, body := doJSON(t, "GET", ts.URL+"/v1/checkers", nil)
	if code != http.StatusOK || strings.Contains(string(body), e1.ID) {
		t.Errorf("deleted checker still listed: %s", body)
	}
}

// TestUnversionedPathsAreGone: the pre-v1 aliases were removed, so each
// old path answers like any unknown path — the enveloped 404 — for
// reads and for the analyze POST alike, and no /v1 response carries a
// Deprecation header any more.
func TestUnversionedPathsAreGone(t *testing.T) {
	srv := New(Config{Checkers: []string{"free"}})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	for _, path := range []string{"/analyze", "/reports", "/stats", "/metrics"} {
		method, body := http.MethodGet, ""
		if path == "/analyze" {
			method, body = http.MethodPost, `{"files": {"a.c": "void f(void) { }"}}`
		}
		req, err := http.NewRequest(method, ts.URL+path, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s %s: status %d, want 404: %.200s", method, path, resp.StatusCode, data)
			continue
		}
		if env := decodeEnvelope(t, data); env.Code != "not_found" {
			t.Errorf("%s %s: code %q, want not_found", method, path, env.Code)
		}
	}
	for _, path := range []string{"/v1/reports", "/v1/stats", "/v1/metrics"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.Header.Get("Deprecation") != "" || resp.Header.Get("Link") != "" {
			t.Errorf("%s carries deprecation signaling: Deprecation=%q Link=%q",
				path, resp.Header.Get("Deprecation"), resp.Header.Get("Link"))
		}
	}
}

// TestMetricsExposeCheckerPlatform: the new counters appear on
// /v1/metrics in Prometheus text format, including the labeled
// validations counter.
func TestMetricsExposeCheckerPlatform(t *testing.T) {
	srv := New(Config{Checkers: []string{"free"}})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	code, body := doJSON(t, "POST", ts.URL+"/v1/checkers", UploadRequest{Source: overReporterSrc})
	if code != http.StatusCreated {
		t.Fatalf("upload: status %d: %s", code, body)
	}
	var e CheckerJSON
	json.Unmarshal(body, &e)
	if code, body = doJSON(t, "POST", ts.URL+"/v1/checkers/"+e.ID+"/validate", nil); code != http.StatusOK {
		t.Fatalf("validate: status %d: %s", code, body)
	}

	_, metrics := doJSON(t, "GET", ts.URL+"/v1/metrics", nil)
	for _, want := range []string{
		"xgccd_checker_reloads_total 0",
		`xgccd_validations_total{outcome="admitted"} 0`,
		`xgccd_validations_total{outcome="rejected"} 1`,
		"xgccd_registry_checkers 1",
	} {
		if !strings.Contains(string(metrics), want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestAnalyzeParsesNoChecker: an analyze request's analyzer adds the
// bundled table's parses and the registry's, and parses no checker
// text. Over all 16 bundled checkers and one registry checker it
// allocates 8 objects (go1.24, also under -race); parsing the bundled
// suite alone is some 2,700, and parsing the registry checker 55.
func TestAnalyzeParsesNoChecker(t *testing.T) {
	const maxAllocs = 16
	reg, _ := registry.Open("")
	e, _, err := reg.Upload(uafCheckerV1)
	if err != nil {
		t.Fatal(err)
	}
	reg.SetVerdict(e.ID, true, nil)
	reg.SetEnabled(e.ID, true)
	var names []string
	for _, s := range mc.BundledCheckers() {
		names = append(names, s.Name)
	}
	srv := New(Config{Checkers: names, Registry: reg})
	enabled, err := reg.Enabled()
	if err != nil || len(enabled) != 1 {
		t.Fatalf("enabled = %+v err=%v", enabled, err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := srv.newAnalyzer(nil, enabled); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("an analyze request's analyzer: %.0f objects", allocs)
	if allocs > maxAllocs {
		t.Errorf("an analyze request's analyzer allocates %.0f objects, want <= %d: it parses checker text", allocs, maxAllocs)
	}
}
