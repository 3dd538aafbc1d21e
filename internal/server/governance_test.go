package server

// Hardened-API tests (DESIGN.md §9): the /v1/ surface with its error
// envelope, admission control (429), and request timeouts (503).

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

const tinySrc = `void kfree(void *p);
int f(int *p) { kfree(p); return *p; }
`

func postRaw(t *testing.T, url string, req AnalyzeRequest) (*http.Response, []byte) {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return resp, buf.Bytes()
}

func decodeEnvelope(t *testing.T, data []byte) ErrorEnvelope {
	t.Helper()
	var env ErrorEnvelope
	if err := json.Unmarshal(data, &env); err != nil {
		t.Fatalf("error body is not the envelope: %v: %s", err, data)
	}
	return env
}

// TestV1PathsServe: a tree pushed through /v1/analyze is visible on
// every /v1 read route.
func TestV1PathsServe(t *testing.T) {
	srv := New(Config{Checkers: []string{"free"}})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, _ := postRaw(t, ts.URL+"/v1/analyze", AnalyzeRequest{Files: map[string]string{"a.c": tinySrc}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/analyze: status %d", resp.StatusCode)
	}
	for _, path := range []string{"/v1/reports", "/v1/stats", "/v1/metrics"} {
		code, body := getBody(t, ts.URL+path)
		if code != http.StatusOK {
			t.Errorf("%s: status %d: %.200s", path, code, body)
		}
	}
}

func TestErrorEnvelopeShape(t *testing.T) {
	srv := New(Config{Checkers: []string{"free"}})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	cases := []struct {
		name   string
		do     func() (*http.Response, []byte)
		status int
		code   string
	}{
		{"unknown path", func() (*http.Response, []byte) {
			resp, err := http.Get(ts.URL + "/v2/nothing")
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			var buf bytes.Buffer
			buf.ReadFrom(resp.Body)
			return resp, buf.Bytes()
		}, http.StatusNotFound, "not_found"},
		{"GET on analyze", func() (*http.Response, []byte) {
			resp, err := http.Get(ts.URL + "/v1/analyze")
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			var buf bytes.Buffer
			buf.ReadFrom(resp.Body)
			return resp, buf.Bytes()
		}, http.StatusMethodNotAllowed, "method_not_allowed"},
		{"empty tree", func() (*http.Response, []byte) {
			return postRaw(t, ts.URL+"/v1/analyze", AnalyzeRequest{Reset: true})
		}, http.StatusBadRequest, "bad_request"},
		{"reports before analysis", func() (*http.Response, []byte) {
			resp, err := http.Get(ts.URL + "/v1/reports")
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			var buf bytes.Buffer
			buf.ReadFrom(resp.Body)
			return resp, buf.Bytes()
		}, http.StatusNotFound, "no_analysis"},
		{"unparseable C", func() (*http.Response, []byte) {
			return postRaw(t, ts.URL+"/v1/analyze", AnalyzeRequest{Files: map[string]string{"bad.c": "int f( {"}})
		}, http.StatusUnprocessableEntity, "analysis_failed"},
	}
	for _, tc := range cases {
		resp, body := tc.do()
		if resp.StatusCode != tc.status {
			t.Errorf("%s: status %d, want %d", tc.name, resp.StatusCode, tc.status)
			continue
		}
		env := decodeEnvelope(t, body)
		if env.Code != tc.code || env.Message == "" {
			t.Errorf("%s: envelope %+v, want code %q", tc.name, env, tc.code)
		}
	}
}

// filler is an endless stream of one byte.
type filler byte

func (f filler) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = byte(f)
	}
	return len(p), nil
}

// TestOversizeBody413: a body that streams past the daemon's bound
// (no Content-Length to refuse up front) is cut off at the bound with
// the enveloped 413, on both routes that decode one, and the daemon
// keeps serving.
func TestOversizeBody413(t *testing.T) {
	srv := New(Config{Checkers: []string{"free"}})
	srv.maxBody = 1 << 10
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	for path, open := range map[string]string{
		"/v1/analyze":  `{"files": {"a.c": "`,
		"/v1/checkers": `{"source": "`,
	} {
		body := io.MultiReader(strings.NewReader(open), io.LimitReader(filler('x'), 64<<10), strings.NewReader(`"}`))
		resp, err := http.Post(ts.URL+path, "application/json", body)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("%s: status %d, want 413: %.200s", path, resp.StatusCode, data)
			continue
		}
		if env := decodeEnvelope(t, data); env.Code != "payload_too_large" {
			t.Errorf("%s: envelope %+v, want code payload_too_large", path, env)
		}
	}
	resp, _ := postRaw(t, ts.URL+"/v1/analyze", AnalyzeRequest{Files: map[string]string{"a.c": tinySrc}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("analyze under the bound after a 413: status %d", resp.StatusCode)
	}
}

// TestRetryAfterSeconds: the 429 hint is derived from the request
// timeout spread over the inflight depth, with sane floors.
func TestRetryAfterSeconds(t *testing.T) {
	cases := []struct {
		d        time.Duration
		inflight int64
		want     int
	}{
		{0, 5, 1},                      // unbounded runs: no basis, floor
		{30 * time.Second, 1, 30},      // one bounded run holds the slot
		{30 * time.Second, 4, 8},       // ceil(30/4)
		{10 * time.Second, 3, 4},       // ceil(10/3)
		{500 * time.Millisecond, 1, 1}, // sub-second rounds up to the floor
		{2 * time.Second, 0, 2},        // inflight raced to zero: treat as 1
	}
	for _, tc := range cases {
		if got := retryAfterSeconds(tc.d, tc.inflight); got != tc.want {
			t.Errorf("retryAfterSeconds(%v, %d) = %d, want %d", tc.d, tc.inflight, got, tc.want)
		}
	}
}

// TestBackpressure429: with MaxInFlight=1 and a run held in flight, a
// second analyze request is shed with 429/"overloaded", counted, and
// carries a Retry-After derived from the request timeout and the
// inflight depth (one 30s-bounded run in flight -> 30).
func TestBackpressure429(t *testing.T) {
	srv := New(Config{Checkers: []string{"free"}, MaxInFlight: 1,
		RequestTimeout: 30 * time.Second})
	entered := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	srv.testRunHook = func(ctx context.Context) {
		once.Do(func() {
			close(entered)
			<-release
		})
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	done := make(chan int, 1)
	go func() {
		resp, _ := postRaw(t, ts.URL+"/v1/analyze", AnalyzeRequest{Files: map[string]string{"a.c": tinySrc}})
		done <- resp.StatusCode
	}()
	<-entered

	resp, body := postRaw(t, ts.URL+"/v1/analyze", AnalyzeRequest{Files: map[string]string{"b.c": tinySrc}})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second request: status %d, want 429: %s", resp.StatusCode, body)
	}
	if env := decodeEnvelope(t, body); env.Code != "overloaded" {
		t.Errorf("envelope code %q, want overloaded", env.Code)
	}
	if got := resp.Header.Get("Retry-After"); got != "30" {
		t.Errorf("Retry-After = %q, want %q (RequestTimeout 30s, 1 inflight)", got, "30")
	}

	close(release)
	if code := <-done; code != http.StatusOK {
		t.Errorf("held request finished with %d, want 200", code)
	}

	if st := getStats(t, ts.URL); st["rejected"] != 1.0 {
		t.Errorf("rejected counter = %v, want 1", st["rejected"])
	}
}

// TestRequestTimeout503: a run that outlives RequestTimeout returns
// 503/"timeout", rolls the tree back, and bumps the counter.
func TestRequestTimeout503(t *testing.T) {
	srv := New(Config{Checkers: []string{"free"}, RequestTimeout: 50 * time.Millisecond})
	srv.testRunHook = func(ctx context.Context) { <-ctx.Done() }
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, body := postRaw(t, ts.URL+"/v1/analyze", AnalyzeRequest{Files: map[string]string{"a.c": tinySrc}})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503: %s", resp.StatusCode, body)
	}
	if env := decodeEnvelope(t, body); env.Code != "timeout" {
		t.Errorf("envelope code %q, want timeout", env.Code)
	}
	if st := getStats(t, ts.URL); st["files"] != 0.0 {
		t.Errorf("timed-out request committed the tree: %v resident files", st["files"])
	}

	// The daemon is healthy afterwards: the next (un-held) request
	// succeeds once the hook is removed.
	srv.testRunHook = nil
	resp, _ = postRaw(t, ts.URL+"/v1/analyze", AnalyzeRequest{Files: map[string]string{"a.c": tinySrc}})
	if resp.StatusCode != http.StatusOK {
		t.Errorf("post-timeout request: status %d", resp.StatusCode)
	}

	if st := getStats(t, ts.URL); st["timeouts"] != 1.0 {
		t.Errorf("timeouts counter = %v, want 1", st["timeouts"])
	}
}

// TestGovernanceMetricsExposed: the new counters appear on /v1/metrics.
func TestGovernanceMetricsExposed(t *testing.T) {
	srv := New(Config{Checkers: []string{"free"}})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	_, body := getBody(t, ts.URL+"/v1/metrics")
	for _, name := range []string{
		"xgccd_rejected_total", "xgccd_timeouts_total",
		"xgccd_checker_failures_total", "xgccd_degraded_runs_total",
		"xgccd_inflight",
	} {
		if !bytes.Contains([]byte(body), []byte(name)) {
			t.Errorf("metric %s missing from /v1/metrics", name)
		}
	}
}

// TestValidateTimeout503: validation goes through the analyze path's
// admission, deadline included. A validation that outlives
// RequestTimeout answers 503/"timeout", counts in timeouts, and leaves
// the registry entry without a verdict.
func TestValidateTimeout503(t *testing.T) {
	srv := New(Config{Checkers: []string{"free"}, RequestTimeout: time.Millisecond})
	srv.testRunHook = func(ctx context.Context) { <-ctx.Done() }
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	code, body := doJSON(t, "POST", ts.URL+"/v1/checkers", UploadRequest{Source: uafCheckerV1})
	if code != http.StatusCreated {
		t.Fatalf("upload: status %d: %s", code, body)
	}
	var uploaded CheckerJSON
	json.Unmarshal(body, &uploaded)

	code, body = doJSON(t, "POST", ts.URL+"/v1/checkers/"+uploaded.ID+"/validate", nil)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("validate: status %d, want 503: %s", code, body)
	}
	if env := decodeEnvelope(t, body); env.Code != "timeout" {
		t.Errorf("envelope code %q, want timeout", env.Code)
	}
	st := getStats(t, ts.URL)
	if st["timeouts"] != 1.0 || st["validations_admitted"] != 0.0 || st["validations_rejected"] != 0.0 {
		t.Errorf("timeouts/admitted/rejected = %v/%v/%v, want 1/0/0",
			st["timeouts"], st["validations_admitted"], st["validations_rejected"])
	}
	_, body = doJSON(t, "GET", ts.URL+"/v1/checkers/"+uploaded.ID, nil)
	var got CheckerJSON
	json.Unmarshal(body, &got)
	if got.Verdict != nil || got.Status != uploaded.Status {
		t.Errorf("timed-out validation touched the entry: status %q (was %q), verdict %s",
			got.Status, uploaded.Status, got.Verdict)
	}
}
