package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"repro/internal/profiling"
	"repro/internal/workload"
	"repro/mc"
)

// expPar measures the engine-parallelism tentpole: wall-clock for the
// full bundled checker suite over the E11 seeded tree at increasing -j,
// verifying that every level produces byte-identical ranked output. The
// series lands in BENCH_parallel.json so CI can track scaling.

type parRun struct {
	Jobs      int     `json:"jobs"`
	Seconds   float64 `json:"seconds"`
	Speedup   float64 `json:"speedup,omitempty"`
	Output    string  `json:"output_sha256"`
	Identical bool    `json:"identical_to_j1"`
}

type parBench struct {
	Experiment string              `json:"experiment"`
	Workload   string              `json:"workload"`
	Host       profiling.HostFacts `json:"host"`
	// Constrained is set when the host has a single usable core:
	// every -j level then runs the same serial schedule, so speedup
	// ratios are scheduler noise and are omitted from the runs.
	Constrained bool     `json:"constrained_host,omitempty"`
	Runs        []parRun `json:"runs"`
	// PeakRSSBytes is the process's high-water resident set when the
	// series finished (cumulative over every run in this process).
	PeakRSSBytes int64 `json:"peak_rss_bytes"`
}

// parAnalyze runs the full bundled suite over srcs at the given
// parallelism and returns the elapsed wall clock and a digest of the
// complete ranked, why-traced output (what a user would diff).
func parAnalyze(srcs map[string]string, jobs int) (time.Duration, string) {
	a := mc.NewAnalyzer()
	if err := a.Configure(mc.RunConfig{Jobs: jobs}); err != nil {
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
	return elapsed, fmt.Sprintf("%x", sha256.Sum256([]byte(sb.String())))
}

func die(err error) {
	fmt.Fprintln(os.Stderr, "mcbench:", err)
	os.Exit(1)
}

func expPar() {
	srcs, _ := workload.MixedTree(4, 25, 2002)
	sweep := []int{1, 2, 4, 8}
	if jobsFlag > 0 {
		found := false
		for _, j := range sweep {
			if j == jobsFlag {
				found = true
			}
		}
		if !found {
			sweep = append(sweep, jobsFlag)
		}
	}

	bench := parBench{
		Experiment:  "parallel-scaling",
		Workload:    "MixedTree(4,25,2002), full bundled checker suite",
		Host:        profiling.Host(),
		Constrained: runtime.NumCPU() == 1 || runtime.GOMAXPROCS(0) == 1,
	}
	var baseSec float64
	var baseDigest string
	fmt.Printf("cores: %d (GOMAXPROCS %d)\n", bench.Host.NumCPU, bench.Host.GOMAXPROCS)
	if bench.Constrained {
		fmt.Println("single-core host: all -j levels run serially; speedups omitted")
	}
	fmt.Println("jobs   seconds   speedup  identical")
	for _, j := range sweep {
		// Best of three trials to damp scheduler noise.
		best, digest := parAnalyze(srcs, j)
		for t := 0; t < 2; t++ {
			d, dig := parAnalyze(srcs, j)
			if dig != digest {
				die(fmt.Errorf("-j %d: output varied across trials", j))
			}
			if d < best {
				best = d
			}
		}
		sec := best.Seconds()
		if j == sweep[0] {
			baseSec, baseDigest = sec, digest
		}
		run := parRun{
			Jobs:      j,
			Seconds:   sec,
			Output:    digest,
			Identical: digest == baseDigest,
		}
		speedup := "      --"
		if !bench.Constrained {
			run.Speedup = baseSec / sec
			speedup = fmt.Sprintf("%7.2fx", run.Speedup)
		}
		bench.Runs = append(bench.Runs, run)
		fmt.Printf("%4d  %8.3f  %s  %v\n", j, run.Seconds, speedup, run.Identical)
	}
	for _, r := range bench.Runs {
		if !r.Identical {
			die(fmt.Errorf("-j %d output differs from -j 1 — determinism broken", r.Jobs))
		}
	}
	bench.PeakRSSBytes = profiling.PeakRSS()
	data, err := json.MarshalIndent(bench, "", "  ")
	if err != nil {
		die(err)
	}
	if err := os.WriteFile("BENCH_parallel.json", append(data, '\n'), 0o644); err != nil {
		die(err)
	}
	fmt.Println("wrote BENCH_parallel.json")
}
