package server

// Fleet-mode daemon tests (DESIGN.md §15): request coalescing on
// /v1/analyze, and an end-to-end coordinator — serving its store as a
// shared CAS over /v1/cas/ — whose workers fill unit keys through
// that HTTP surface.

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/fleet"
	"repro/internal/workload"
)

// TestAnalyzeCoalescing is the dedup regression test: N concurrent
// identical posts cost one analysis and return one shared response.
// The run hook holds the leader inside its run until every follower
// has attached to the flight, so the coalescing window is guaranteed,
// not raced.
func TestAnalyzeCoalescing(t *testing.T) {
	srcs, _ := workload.MixedTree(2, 5, 7)
	s := New(Config{})
	req := AnalyzeRequest{Files: srcs}
	key := s.analyzeKey(nil, &req)

	const n = 8 // deliberately above DefaultMaxInFlight: followers skip admission
	s.testRunHook = func(ctx context.Context) {
		deadline := time.Now().Add(15 * time.Second)
		for s.flight.Waiters(key) < n && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body, _ := json.Marshal(req)
	type reply struct {
		status int
		body   string
	}
	replies := make(chan reply, n)
	for i := 0; i < n; i++ {
		go func() {
			resp, err := http.Post(ts.URL+"/v1/analyze", "application/json", bytes.NewReader(body))
			if err != nil {
				replies <- reply{0, err.Error()}
				return
			}
			defer resp.Body.Close()
			b, _ := io.ReadAll(resp.Body)
			replies <- reply{resp.StatusCode, string(b)}
		}()
	}
	first := <-replies
	if first.status != http.StatusOK {
		t.Fatalf("status %d: %s", first.status, first.body)
	}
	for i := 1; i < n; i++ {
		if got := <-replies; got != first {
			t.Fatalf("response %d diverged:\nstatus %d vs %d\n%s", i, got.status, first.status, got.body)
		}
	}
	s.mu.Lock()
	analyses, coalesced := s.analyses, s.coalescedAnalyzes
	s.mu.Unlock()
	if analyses != 1 {
		t.Fatalf("%d identical posts ran %d analyses, want 1", n, analyses)
	}
	if coalesced != n-1 {
		t.Fatalf("coalesced_analyzes = %d, want %d", coalesced, n-1)
	}
}

// TestDistinctRequestsDoNotCoalesce guards the key: different patches
// must run separately, and so must one patch before and after a
// checker is enabled.
func TestDistinctRequestsDoNotCoalesce(t *testing.T) {
	s := New(Config{})
	a := AnalyzeRequest{Files: map[string]string{"a.c": "void a(void) {}"}}
	b := AnalyzeRequest{Files: map[string]string{"a.c": "void b(void) {}"}}
	if s.analyzeKey(nil, &a) == s.analyzeKey(nil, &b) {
		t.Fatal("distinct patches share an analyze key")
	}

	reg := s.cfg.Registry
	before, err := reg.Enabled()
	if err != nil {
		t.Fatal(err)
	}
	e, _, err := reg.Upload(uafCheckerV1)
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.SetVerdict(e.ID, true, nil); err != nil {
		t.Fatal(err)
	}
	if err := reg.SetEnabled(e.ID, true); err != nil {
		t.Fatal(err)
	}
	after, err := reg.Enabled()
	if err != nil {
		t.Fatal(err)
	}
	if s.analyzeKey(before, &a) == s.analyzeKey(after, &a) {
		t.Fatal("enabling a checker left the analyze key unchanged")
	}
}

// TestFleetModeEndToEnd wires the full deployment shape in-process:
// a coordinator daemon sharing its store at /v1/cas/, a worker
// reaching that store over HTTP, and an analyze whose units the
// worker fills — byte-identical to a plain single-process daemon.
func TestFleetModeEndToEnd(t *testing.T) {
	srcs, _ := workload.MixedTree(2, 6, 11)

	plain := New(Config{Jobs: 2})
	tsPlain := httptest.NewServer(plain.Handler())
	defer tsPlain.Close()
	want := postAnalyze(t, tsPlain, AnalyzeRequest{Files: srcs})

	// The coordinator exists before its handler, so the worker's CAS
	// client is handed the listener's address ahead of the server start.
	ts := httptest.NewUnstartedServer(nil)
	cas := cache.NewHTTPStore("http://"+ts.Listener.Addr().String()+"/v1/cas", nil)
	wsrv := httptest.NewServer(fleet.NewWorker(cas, 2).Handler())
	defer wsrv.Close()
	co := fleet.NewCoordinator(fleet.Config{Workers: []string{wsrv.URL}})
	defer co.Close()
	ts.Config.Handler = New(Config{Jobs: 2, Fleet: co}).Handler()
	ts.Start()
	defer ts.Close()

	got := postAnalyze(t, ts, AnalyzeRequest{Files: srcs})
	if !reflect.DeepEqual(got.Ranked, want.Ranked) {
		t.Fatalf("fleet-mode ranked output differs from single-process:\n%+v\nvs\n%+v", got.Ranked, want.Ranked)
	}
	if got.Incr == nil || got.Incr.UnitsRemote == 0 {
		t.Fatalf("no units filled remotely: %+v", got.Incr)
	}

	// The fleet counters surface on /v1/stats and /v1/metrics.
	fs, _ := getStats(t, ts.URL)["fleet"].(map[string]any)
	if filled, _ := fs["fleet_filled"].(float64); filled == 0 {
		t.Fatalf("stats missing fleet counters: %v", fs)
	}
	mresp, err := http.Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mbody, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	for _, metric := range []string{"xgccd_fleet_filled_total", "xgccd_fleet_requeues_total",
		"xgccd_coalesced_analyzes_total", "xgccd_units_remote"} {
		if !strings.Contains(string(mbody), metric) {
			t.Fatalf("/v1/metrics missing %s", metric)
		}
	}
}
