package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/cache"
	"repro/internal/profiling"
	"repro/internal/workload"
	"repro/mc"
)

// expIncr measures the incremental-analysis tentpole: after an edit,
// a warm run against the resident cache must produce byte-identical
// ranked output to a fresh cold run while running far fewer (checker,
// unit) pairs live (>= 5x fewer for a one-file body tweak on the E11
// tree). Units, not function analyses, are the measure: compiled
// dispatch skips provably silent (checker, root) pairs, which can take
// the live function-analysis count to zero on either side. The series
// lands in BENCH_incremental.json.

var incrBenchCheckers = []string{"free", "lock", "null", "leak", "interrupt"}

type incrRun struct {
	Edit          string  `json:"edit"`
	ColdLiveFuncs int     `json:"cold_live_funcs"`
	WarmLiveFuncs int     `json:"warm_live_funcs"`
	ColdUnitsLive int     `json:"cold_units_live"`
	UnitsLive     int     `json:"units_live"`
	Reduction     float64 `json:"reduction"` // cold_units_live / units_live
	UnitsReplayed int     `json:"units_replayed"`
	ColdSeconds   float64 `json:"cold_seconds"`
	WarmSeconds   float64 `json:"warm_seconds"`
	Output        string  `json:"output_sha256"`
	Identical     bool    `json:"identical_to_cold"`
}

type incrBench struct {
	Experiment string              `json:"experiment"`
	Workload   string              `json:"workload"`
	Host       profiling.HostFacts `json:"host"`
	Checkers   []string            `json:"checkers"`
	Jobs       int                 `json:"jobs"`
	Runs       []incrRun           `json:"runs"`
	// PeakRSSBytes is the process's high-water resident set when the
	// series finished (cumulative over every run in this process).
	PeakRSSBytes int64 `json:"peak_rss_bytes"`
}

// incrAnalyze runs the benchmark checker set over srcs, optionally
// against a resident store, and returns the result, a digest of the
// complete ranked output, and the wall-clock.
func incrAnalyze(srcs map[string]string, store cache.Store) (*mc.Result, string, float64) {
	a := mc.NewAnalyzer()
	if err := a.Configure(mc.RunConfig{Jobs: jobsFlag, CacheStore: store}); err != nil {
		die(err)
	}
	for name, src := range srcs {
		a.AddSource(name, src)
	}
	for _, name := range incrBenchCheckers {
		if err := a.LoadBundledChecker(name); err != nil {
			die(err)
		}
	}
	start := time.Now()
	res, err := a.RunContext(context.Background())
	elapsed := time.Since(start).Seconds()
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
	return res, fmt.Sprintf("%x", sha256.Sum256([]byte(sb.String()))), elapsed
}

func expIncr() {
	srcs, _ := workload.MixedTree(4, 25, 2002)
	bench := incrBench{
		Experiment: "incremental-replay",
		Workload:   "MixedTree(4,25,2002)",
		Host:       profiling.Host(),
		Checkers:   incrBenchCheckers,
		Jobs:       jobsFlag,
	}

	edits := []workload.Edit{
		workload.TweakBody("tree_0.c"),
		workload.PrependBanner("tree_1.c"),
		workload.AppendBuggyFunc("tree_2.c", 1),
	}

	fmt.Println("edit                        cold-units  warm-units  reduction  units-replayed  identical")
	for _, e := range edits {
		// Fresh store, warmed by a cold run of the unedited tree.
		store := cache.NewMemStore()
		incrAnalyze(srcs, store)

		edited := e.Apply(srcs)
		warmRes, warmDigest, warmSec := incrAnalyze(edited, store)
		_, coldDigest, coldSec := incrAnalyze(edited, nil)

		// The cold baseline's live-unit count comes from a cold cached
		// run over the same edited tree (the plain run keeps no
		// IncrStats).
		coldCached, coldCachedDigest, _ := incrAnalyze(edited, cache.NewMemStore())
		if coldCachedDigest != coldDigest {
			die(fmt.Errorf("%s: cold cached output differs from plain cold output", e.Name))
		}

		coldLive := coldCached.Incr.UnitsLive
		warmLive := warmRes.Incr.UnitsLive
		reduction := 0.0
		if warmLive > 0 {
			reduction = float64(coldLive) / float64(warmLive)
		}
		run := incrRun{
			Edit:          e.Name,
			ColdLiveFuncs: coldCached.Incr.FuncsAnalyzedLive,
			WarmLiveFuncs: warmRes.Incr.FuncsAnalyzedLive,
			ColdUnitsLive: coldLive,
			UnitsLive:     warmLive,
			Reduction:     reduction,
			UnitsReplayed: warmRes.Incr.UnitsReplayed,
			ColdSeconds:   coldSec,
			WarmSeconds:   warmSec,
			Output:        warmDigest,
			Identical:     warmDigest == coldDigest,
		}
		bench.Runs = append(bench.Runs, run)
		fmt.Printf("%-26s  %10d  %10d  %8.1fx  %14d  %v\n",
			e.Name, coldLive, warmLive, reduction, run.UnitsReplayed, run.Identical)
	}

	for _, r := range bench.Runs {
		if !r.Identical {
			die(fmt.Errorf("%s: warm output differs from cold — replay broken", r.Edit))
		}
	}
	// The acceptance bar: a one-file body tweak runs >= 5x fewer units
	// live than a cold run.
	if head := bench.Runs[0]; head.Reduction < 5 {
		die(fmt.Errorf("%s: reduction %.1fx below the 5x bar", head.Edit, head.Reduction))
	}

	bench.PeakRSSBytes = profiling.PeakRSS()
	data, err := json.MarshalIndent(bench, "", "  ")
	if err != nil {
		die(err)
	}
	if err := os.WriteFile("BENCH_incremental.json", append(data, '\n'), 0o644); err != nil {
		die(err)
	}
	fmt.Println("wrote BENCH_incremental.json")
}
