package main

// expMulticheck measures how the multi-checker compiled dispatch
// (DESIGN.md §11) scales: synthetic checker suites of 5/50/200
// checkers — the bundled five plus callee-renamed variants, the "many
// system-specific checkers, few relevant here" population the paper's
// §10 deployment describes — over the E11 seeded tree, at -j 1 and
// -j 8. Every suite size and parallelism must produce byte-identical
// ranked output (the variants' renamed callees never appear in the
// workload, so skipping them is observationally invisible), and the
// 50-checker suite must run within 3x the 5-checker suite — the
// sublinear claim. The series lands in BENCH_multicheck.json so CI
// can track it.

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"regexp"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/checkers"
	"repro/internal/profiling"
	"repro/internal/workload"
	"repro/mc"
)

type multiRun struct {
	Checkers int     `json:"checkers"`
	Jobs     int     `json:"jobs"`
	Seconds  float64 `json:"seconds"` // median over trials
	Output   string  `json:"output_sha256"`
}

type multiBench struct {
	Experiment string              `json:"experiment"`
	Workload   string              `json:"workload"`
	Host       profiling.HostFacts `json:"host"`
	Trials     int                 `json:"trials"`
	Runs       []multiRun          `json:"runs"`
	// Ratio50 and Ratio200 are median(seconds at N checkers) /
	// median(seconds at 5 checkers) at -j 1. The acceptance criterion
	// is Ratio50 <= 3.
	Ratio50   float64 `json:"ratio_50v5"`
	Ratio200  float64 `json:"ratio_200v5"`
	Identical bool    `json:"output_identical"`
	// PeakRSSBytes is the process's high-water resident set when the
	// series finished (cumulative over every run in this process).
	PeakRSSBytes int64 `json:"peak_rss_bytes"`
}

const multiTrials = 3

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// variantSeeds lists, per bundled checker, the concrete callee names
// its patterns hinge on; renaming them (and the sm name) yields a
// checker that is structurally identical but watches an API surface
// the workload never touches.
var variantSeeds = []struct {
	name    string
	callees []string
}{
	{"free", []string{"kfree"}},
	{"lock", []string{"lock", "spin_lock", "trylock", "unlock", "spin_unlock"}},
	{"null", []string{"kmalloc", "malloc"}},
	{"interrupt", []string{"cli", "sti"}},
	{"block", []string{"cli", "sti"}},
}

var smNameRe = regexp.MustCompile(`(?m)^sm\s+(\w+);`)

// checkerSuite returns n checker sources: the bundled five verbatim,
// then callee-renamed variants cycling over the five.
func checkerSuite(n int) []string {
	var out []string
	for _, seed := range variantSeeds {
		s, ok := checkers.Lookup(seed.name)
		if !ok {
			die(fmt.Errorf("bundled checker %s missing", seed.name))
		}
		out = append(out, s.Text)
	}
	for v := 0; len(out) < n; v++ {
		seed := variantSeeds[v%len(variantSeeds)]
		s, _ := checkers.Lookup(seed.name)
		text := s.Text
		suffix := fmt.Sprintf("_v%d", v)
		for _, c := range seed.callees {
			re := regexp.MustCompile(`\b` + c + `\(`)
			text = re.ReplaceAllString(text, c+suffix+"(")
		}
		text = smNameRe.ReplaceAllString(text, "sm ${1}"+suffix+";")
		out = append(out, text)
	}
	return out[:n]
}

// multiAnalyze runs one suite over srcs and returns wall clock plus
// the ranked-output digest (same rendering as parAnalyze).
func multiAnalyze(srcs map[string]string, checkerSrcs []string, jobs int) (time.Duration, string) {
	a := mc.NewAnalyzer()
	if err := a.Configure(mc.RunConfig{Jobs: jobs}); err != nil {
		die(err)
	}
	for name, src := range srcs {
		a.AddSource(name, src)
	}
	for i, cs := range checkerSrcs {
		if err := a.LoadChecker(cs); err != nil {
			die(fmt.Errorf("suite checker %d: %w", i, err))
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

func expMulticheck() {
	srcs, _ := workload.MixedTree(4, 25, 2002)
	sizes := []int{5, 50, 200}

	bench := multiBench{
		Experiment: "multicheck-dispatch",
		Workload:   "MixedTree(4,25,2002), 5 bundled checkers + renamed variants",
		Host:       profiling.Host(),
		Trials:     multiTrials,
		Identical:  true,
	}

	med := map[int]float64{} // suite size -> median seconds at -j 1
	var refDigest string
	fmt.Println("checkers  jobs   seconds  output")
	for _, n := range sizes {
		suite := checkerSuite(n)
		for _, jobs := range []int{1, 8} {
			var secs []float64
			for t := 0; t < multiTrials; t++ {
				runtime.GC()
				d, digest := multiAnalyze(srcs, suite, jobs)
				secs = append(secs, d.Seconds())
				if refDigest == "" {
					refDigest = digest
				}
				if digest != refDigest {
					die(fmt.Errorf("multicheck %d checkers -j %d: output differs — suite size or parallelism changed results", n, jobs))
				}
			}
			m := median(secs)
			if jobs == 1 {
				med[n] = m
			}
			bench.Runs = append(bench.Runs, multiRun{Checkers: n, Jobs: jobs, Seconds: m, Output: refDigest})
			fmt.Printf("%8d  %4d  %8.3f  %s\n", n, jobs, m, refDigest[:12])
		}
	}

	bench.PeakRSSBytes = profiling.PeakRSS()
	bench.Ratio50 = med[50] / med[5]
	bench.Ratio200 = med[200] / med[5]

	fmt.Printf("scaling at -j 1: 5 -> 50 checkers %.2fx (criterion: <= 3x), 5 -> 200 checkers %.2fx\n",
		bench.Ratio50, bench.Ratio200)
	if bench.Ratio50 > 3 {
		die(fmt.Errorf("multicheck: 50-checker suite took %.2fx the 5-checker suite (> 3x)", bench.Ratio50))
	}

	data, err := json.MarshalIndent(bench, "", "  ")
	if err != nil {
		die(err)
	}
	if err := os.WriteFile("BENCH_multicheck.json", append(data, '\n'), 0o644); err != nil {
		die(err)
	}
	fmt.Println("wrote BENCH_multicheck.json")
}
