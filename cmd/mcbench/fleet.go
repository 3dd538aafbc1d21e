package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"time"

	"repro/internal/cache"
	"repro/internal/fleet"
	"repro/internal/profiling"
	"repro/internal/server"
	"repro/internal/workload"
	"repro/mc"
)

// expFleet measures the scale-out tentpole (DESIGN.md §15) with the
// whole fleet in one process: httptest workers filling unit keys
// through the HTTP CAS surface, a coordinator sharding onto them,
// and the daemon's /v1/analyze request coalescing. Three claims land
// in BENCH_fleet.json:
//
//   - sharding is invisible: a fleet run at every worker count
//     produces the single-process run's byte-identical output;
//   - the shared CAS composes across tenants: a second coordinator
//     over a warm store replays >= 90% of its units and dispatches
//     nothing;
//   - coalescing absorbs identical bursts: K = 8 concurrent identical
//     analyze posts cost one analysis and finish within 1.5x the
//     wall-clock of a single post.

// fleetShortFlag trims the tree and the worker sweep for CI.
var fleetShortFlag = flag.Bool("fleet-short", false, "fleet experiment: smaller tree and worker sweep (CI mode)")

const (
	fleetCoalesceK     = 8
	fleetCoalesceBound = 1.5
	fleetReuseBound    = 0.9
)

type fleetRun struct {
	Workers       int     `json:"workers"`
	Seconds       float64 `json:"seconds"`
	UnitsRemote   int     `json:"units_remote"`
	UnitsReplayed int     `json:"units_replayed"`
	Dispatched    int64   `json:"dispatched"`
	Posts         int64   `json:"posts"` // /v1/work requests the run cost
	Output        string  `json:"output_sha256"`
	Identical     bool    `json:"identical_to_single_process"`
}

type fleetBench struct {
	Experiment string              `json:"experiment"`
	Workload   string              `json:"workload"`
	Host       profiling.HostFacts `json:"host"`
	Short      bool                `json:"short,omitempty"`
	// BaselineSeconds is the plain single-process run the fleet rows
	// are diffed against.
	BaselineSeconds float64    `json:"single_process_seconds"`
	Runs            []fleetRun `json:"runs"`
	// Second-tenant warm reuse over the shared CAS: fraction of the
	// run's units replayed from entries the first tenant's workers
	// filled. The acceptance criterion is Reuse >= ReuseBound with
	// zero dispatches.
	SecondTenantReuse      float64 `json:"second_tenant_reuse"`
	SecondTenantDispatched int64   `json:"second_tenant_dispatched"`
	ReuseBound             float64 `json:"reuse_bound"`
	// Request coalescing: K identical concurrent posts against one
	// post, both on cold daemons. The acceptance criterion is
	// Analyses == 1 and CoalesceRatio <= CoalesceBound.
	CoalesceK         int     `json:"coalesce_k"`
	OneAnalyzeSeconds float64 `json:"one_analyze_seconds"`
	KAnalyzeSeconds   float64 `json:"k_analyze_seconds"`
	CoalesceRatio     float64 `json:"coalesce_ratio"`
	CoalesceBound     float64 `json:"coalesce_bound"`
	Analyses          int64   `json:"analyses_for_k_requests"`
	CoalescedAnalyzes int64   `json:"coalesced_analyzes"`
	// PeakRSSBytes is the process's high-water resident set when the
	// series finished (cumulative over every run in this process).
	PeakRSSBytes int64 `json:"peak_rss_bytes"`
}

// fleetAnalyze runs the full bundled suite over srcs — with a cache
// store and a coordinator's unit runner when given — and returns the
// result, wall-clock seconds, and the ranked-output digest.
func fleetAnalyze(srcs map[string]string, store cache.Store, runner mc.UnitRunner) (*mc.Result, float64, string) {
	a := mc.NewAnalyzer()
	if err := a.Configure(mc.RunConfig{Jobs: 2, CacheStore: store, UnitRunner: runner}); err != nil {
		die(err)
	}
	for name, src := range srcs {
		a.AddSource(name, src)
	}
	for _, s := range mc.BundledCheckers() {
		if err := a.LoadBundledChecker(s.Name); err != nil {
			die(err)
		}
	}
	a.MarkFunction("net_wait", "blocking")
	start := time.Now()
	res, err := a.RunContext(context.Background())
	elapsed := time.Since(start)
	if err != nil {
		die(err)
	}
	var sb strings.Builder
	for _, r := range res.Ranked() {
		sb.WriteString(r.Detailed())
	}
	for _, g := range res.Grouped() {
		fmt.Fprintf(&sb, "%s %.3f %d\n", g.Rule, g.Z, len(g.Reports))
	}
	return res, elapsed.Seconds(), fmt.Sprintf("%x", sha256.Sum256([]byte(sb.String())))
}

// fleetWorkers serves the store over the HTTP CAS surface — the wire
// path a deployed worker uses — and starts n workers against it,
// returning their URLs and a shutdown func.
func fleetWorkers(store cache.Store, n int) ([]string, func()) {
	casSrv := httptest.NewServer(cache.NewCASServer(store))
	cas := cache.NewHTTPStore(casSrv.URL, nil)
	urls := make([]string, n)
	servers := []*httptest.Server{casSrv}
	for i := range urls {
		srv := httptest.NewServer(fleet.NewWorker(cas, 2).Handler())
		servers = append(servers, srv)
		urls[i] = srv.URL
	}
	return urls, func() {
		for _, srv := range servers {
			srv.Close()
		}
	}
}

// fleetBurst fires K identical analyze posts at a fresh cold daemon,
// released together, and returns the wall-clock plus the daemon's
// analysis and coalescing counters. All K replies must be the shared
// response byte for byte.
func fleetBurst(body []byte) (sec float64, analyses, coalesced int64) {
	burst := httptest.NewServer(server.New(server.Config{Jobs: 2}).Handler())
	defer burst.Close()
	replies := make([][]byte, fleetCoalesceK)
	start := make(chan struct{})
	var wg sync.WaitGroup
	t0 := time.Now()
	for i := range replies {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			replies[i] = fleetPost(burst.URL, body)
		}(i)
	}
	close(start)
	wg.Wait()
	sec = time.Since(t0).Seconds()
	for i := 1; i < len(replies); i++ {
		if !bytes.Equal(replies[i], replies[0]) {
			die(fmt.Errorf("fleet: coalesced reply %d diverged from the shared response", i))
		}
	}
	var st server.StatsResponse
	resp, err := http.Get(burst.URL + "/v1/stats")
	if err != nil {
		die(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		die(err)
	}
	resp.Body.Close()
	return sec, st.Analyses, st.CoalescedAnalyzes
}

// fleetPost posts one analyze request and returns the response body.
func fleetPost(url string, body []byte) []byte {
	resp, err := http.Post(url+"/v1/analyze", "application/json", bytes.NewReader(body))
	if err != nil {
		die(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		die(err)
	}
	if resp.StatusCode != http.StatusOK {
		die(fmt.Errorf("analyze: status %d: %s", resp.StatusCode, data))
	}
	return data
}

func expFleet() {
	files, funcs := 4, 25
	sweep := []int{1, 2, 4}
	if *fleetShortFlag {
		files, funcs = 2, 10
		sweep = []int{1, 2}
	}
	srcs, _ := workload.MixedTree(files, funcs, 2002)

	bench := fleetBench{
		Experiment:    "fleet-scale-out",
		Workload:      fmt.Sprintf("MixedTree(%d,%d,2002), full bundled checker suite", files, funcs),
		Host:          profiling.Host(),
		Short:         *fleetShortFlag,
		ReuseBound:    fleetReuseBound,
		CoalesceK:     fleetCoalesceK,
		CoalesceBound: fleetCoalesceBound,
	}

	_, baseSec, baseDigest := fleetAnalyze(srcs, nil, nil)
	bench.BaselineSeconds = baseSec
	fmt.Printf("single-process baseline: %.3fs\n", baseSec)

	// Cold fleet runs at each worker count, each over its own shared
	// CAS reached through the HTTP blob surface.
	var warmCAS cache.Store
	fmt.Println("workers  seconds  units-remote  dispatched  posts  identical")
	for _, n := range sweep {
		cas := cache.NewMemStore()
		urls, stop := fleetWorkers(cas, n)
		co := fleet.NewCoordinator(fleet.Config{Workers: urls})
		res, sec, digest := fleetAnalyze(srcs, cas, co.RunnerFor("tenant-a"))
		st := co.Stats()
		co.Close()
		stop()
		run := fleetRun{
			Workers:       n,
			Seconds:       sec,
			UnitsRemote:   res.Incr.UnitsRemote,
			UnitsReplayed: res.Incr.UnitsReplayed,
			Dispatched:    st.Dispatched,
			Posts:         st.Batches,
			Output:        digest,
			Identical:     digest == baseDigest,
		}
		bench.Runs = append(bench.Runs, run)
		fmt.Printf("%7d  %7.3f  %12d  %10d  %5d  %v\n",
			n, run.Seconds, run.UnitsRemote, run.Dispatched, run.Posts, run.Identical)
		if !run.Identical {
			die(fmt.Errorf("fleet: %d-worker output differs from single-process — sharding changed results", n))
		}
		if run.UnitsRemote == 0 {
			die(fmt.Errorf("fleet: %d-worker cold run filled no units remotely", n))
		}
		warmCAS = cas
	}

	// Second tenant over the last sweep's warm CAS: a fresh
	// coordinator must replay, not dispatch.
	urls, stop := fleetWorkers(warmCAS, sweep[len(sweep)-1])
	co2 := fleet.NewCoordinator(fleet.Config{Workers: urls})
	second, _, secondDigest := fleetAnalyze(srcs, warmCAS, co2.RunnerFor("tenant-b"))
	bench.SecondTenantDispatched = co2.Stats().Dispatched
	co2.Close()
	stop()
	if secondDigest != baseDigest {
		die(fmt.Errorf("fleet: second tenant's output differs"))
	}
	total := second.Incr.UnitsReplayed + second.Incr.UnitsLive
	if total > 0 {
		bench.SecondTenantReuse = float64(second.Incr.UnitsReplayed) / float64(total)
	}
	fmt.Printf("second tenant over warm CAS: %.1f%% units replayed (bound >= %.0f%%), %d dispatched\n",
		100*bench.SecondTenantReuse, 100*fleetReuseBound, bench.SecondTenantDispatched)
	if bench.SecondTenantReuse < fleetReuseBound {
		die(fmt.Errorf("fleet: second tenant reused %.2f of units, want >= %.2f",
			bench.SecondTenantReuse, fleetReuseBound))
	}

	// Request coalescing: one cold daemon takes one post; a second
	// cold daemon takes K identical posts released together. The burst
	// must coalesce to a single analysis and finish near the one-post
	// wall-clock. The tree is fixed at the full size even in short
	// mode: the bound compares wall-clocks, so the analysis has to
	// dwarf per-post HTTP overhead for the ratio to measure coalescing
	// rather than connection setup.
	coalesceSrcs, _ := workload.MixedTree(4, 25, 2002)
	body, err := json.Marshal(server.AnalyzeRequest{Files: coalesceSrcs})
	if err != nil {
		die(err)
	}
	// Best of two cold daemons on each side: min-vs-min damps the
	// one-off stalls a shared host injects into either measurement.
	for i := 0; i < 2; i++ {
		one := httptest.NewServer(server.New(server.Config{Jobs: 2}).Handler())
		t0 := time.Now()
		fleetPost(one.URL, body)
		sec := time.Since(t0).Seconds()
		one.Close()
		if i == 0 || sec < bench.OneAnalyzeSeconds {
			bench.OneAnalyzeSeconds = sec
		}
	}
	for i := 0; i < 2; i++ {
		sec, analyses, coalesced := fleetBurst(body)
		if i == 0 || sec < bench.KAnalyzeSeconds {
			bench.KAnalyzeSeconds = sec
			bench.Analyses = analyses
			bench.CoalescedAnalyzes = coalesced
		}
		if analyses != 1 {
			bench.Analyses = analyses
			break
		}
	}
	bench.CoalesceRatio = bench.KAnalyzeSeconds / bench.OneAnalyzeSeconds
	fmt.Printf("coalescing: 1 post %.3fs, %d identical posts %.3fs (%.2fx, bound <= %.1fx), %d analyses, %d coalesced\n",
		bench.OneAnalyzeSeconds, fleetCoalesceK, bench.KAnalyzeSeconds,
		bench.CoalesceRatio, fleetCoalesceBound, bench.Analyses, bench.CoalescedAnalyzes)
	if bench.Analyses != 1 {
		die(fmt.Errorf("fleet: %d identical posts ran %d analyses, want 1", fleetCoalesceK, bench.Analyses))
	}
	if bench.CoalesceRatio > fleetCoalesceBound {
		die(fmt.Errorf("fleet: K-burst took %.2fx one analysis (bound %.1fx)",
			bench.CoalesceRatio, fleetCoalesceBound))
	}

	bench.PeakRSSBytes = profiling.PeakRSS()
	data, err := json.MarshalIndent(bench, "", "  ")
	if err != nil {
		die(err)
	}
	if err := os.WriteFile("BENCH_fleet.json", append(data, '\n'), 0o644); err != nil {
		die(err)
	}
	fmt.Println("wrote BENCH_fleet.json")
}
