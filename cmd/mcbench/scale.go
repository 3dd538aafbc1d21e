package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"strings"
	"time"

	"repro/internal/cache"
	"repro/internal/profiling"
	"repro/internal/workload"
	"repro/mc"
)

// expScale measures the memory-bounding tentpole (DESIGN.md §12):
// MixedTree workloads at four sizes, each analyzed with the full
// bundled suite in three streaming configurations (-j 1, -j 8, and
// through a cold incremental cache) against an unbounded in-memory
// reference. Every cell must produce the reference's byte-identical
// ranked output; with streaming on (the cells named spill-on — the
// name predates the spill store's deletion) a 4x larger tree must stay
// within a 2x peak-RSS growth (the Go runtime and the per-file parse
// are the residual linear terms). Peak RSS is the kernel's VmHWM — a
// process-lifetime high-water mark — so every cell runs in a child
// process (mcbench re-execs itself with the hidden -scale-cell flag)
// and reports its own RSS. The series lands in BENCH_scale.json.

// scaleCellFlag and scaleShortFlag are registered at package level so
// main's flag.Parse picks them up alongside its own flags.
var (
	scaleCellFlag  = flag.String("scale-cell", "", "internal: run one scale measurement cell (JSON spec) and emit JSON on stdout")
	scaleShortFlag = flag.Bool("scale-short", false, "scale experiment: two tree sizes and no RSS-ratio assertion (CI mode)")
)

// scaleMaxResidentMB is handed to every spill-on cell as
// RunConfig.MaxResidentMB: any value > 0 switches streaming on, the
// magnitude is not consulted.
const scaleMaxResidentMB = 64

type scaleCellSpec struct {
	Files  int   `json:"files"`
	Funcs  int   `json:"funcs"`
	Seed   int64 `json:"seed"`
	Jobs   int   `json:"jobs"`
	Spill  bool  `json:"spill"`
	Cached bool  `json:"cached"`
}

type scaleCellResult struct {
	Seconds      float64 `json:"seconds"`
	Lines        int     `json:"lines"`
	PeakRSSBytes int64   `json:"peak_rss_bytes"`
	Evictions    int64   `json:"evictions"`
	ASTsReleased int64   `json:"asts_released"`
	Output       string  `json:"output_sha256"`
}

// runScaleCell is the child side: one full-suite analysis in a fresh
// process, result JSON on stdout.
func runScaleCell(spec string) {
	var c scaleCellSpec
	if err := json.Unmarshal([]byte(spec), &c); err != nil {
		die(fmt.Errorf("scale-cell spec: %w", err))
	}
	srcs, _ := workload.MixedTree(c.Files, c.Funcs, c.Seed)
	lines := 0
	for _, src := range srcs {
		lines += strings.Count(src, "\n") + 1
	}

	a := mc.NewAnalyzer()
	cfg := mc.RunConfig{Jobs: c.Jobs}
	if c.Spill {
		cfg.MaxResidentMB = scaleMaxResidentMB
	}
	if c.Cached {
		cfg.CacheStore = cache.NewMemStore()
	}
	if err := a.Configure(cfg); err != nil {
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

	out := scaleCellResult{
		Seconds:      elapsed.Seconds(),
		Lines:        lines,
		PeakRSSBytes: profiling.PeakRSS(),
		Output:       fmt.Sprintf("%x", sha256.Sum256([]byte(sb.String()))),
	}
	if sp := res.Spill; sp != nil {
		out.Evictions = sp.Evictions
		out.ASTsReleased = sp.ASTsReleased
	}
	if err := json.NewEncoder(os.Stdout).Encode(out); err != nil {
		die(err)
	}
}

// scaleCellExec is the parent side: re-exec this binary for one cell.
func scaleCellExec(spec scaleCellSpec) scaleCellResult {
	data, err := json.Marshal(spec)
	if err != nil {
		die(err)
	}
	cmd := exec.Command(os.Args[0], "-scale-cell", string(data))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		die(fmt.Errorf("scale cell %s: %w", data, err))
	}
	var r scaleCellResult
	if err := json.Unmarshal(out, &r); err != nil {
		die(fmt.Errorf("scale cell %s: bad child output %q: %w", data, out, err))
	}
	return r
}

type scaleRun struct {
	Files        int     `json:"files"`
	Lines        int     `json:"lines"`
	Mode         string  `json:"mode"`
	Jobs         int     `json:"jobs"`
	Spill        bool    `json:"spill"`
	Cached       bool    `json:"cached"`
	Seconds      float64 `json:"seconds"`
	KLoCPerMin   float64 `json:"kloc_per_min"`
	PeakRSSBytes int64   `json:"peak_rss_bytes"`
	Evictions    int64   `json:"evictions"`
	ASTsReleased int64   `json:"asts_released"`
	Output       string  `json:"output_sha256"`
	Identical    bool    `json:"identical_to_reference"`
}

type scaleBench struct {
	Experiment    string              `json:"experiment"`
	Workload      string              `json:"workload"`
	Host          profiling.HostFacts `json:"host"`
	MaxResidentMB int                 `json:"max_resident_mb"`
	Short         bool                `json:"short,omitempty"`
	Runs          []scaleRun          `json:"runs"`
	// RSS growth for a 4x tree (largest size over the size 4x smaller),
	// spill on vs off, at -j 1. The acceptance criterion is
	// RSSRatioSpillOn <= RatioBound; the spill-off ratio is reported
	// for contrast but not asserted (the GC's pacing makes unbounded
	// growth noisy, while the bounded mode must hold its ceiling).
	RSSRatioSpillOn  float64 `json:"rss_ratio_4x_spill_on,omitempty"`
	RSSRatioSpillOff float64 `json:"rss_ratio_4x_spill_off,omitempty"`
	RatioBound       float64 `json:"ratio_bound,omitempty"`
	// WallRatioSpillOnJ1 is the spill-on-j1 wall-clock over the
	// unbounded reference at the largest size — the streaming mode's
	// slowdown factor. Reported, not asserted (timing noise).
	WallRatioSpillOnJ1 float64 `json:"wall_ratio_spill_on_j1,omitempty"`
}

func expScale() {
	sizes := []int{4, 8, 16, 32}
	if *scaleShortFlag {
		sizes = sizes[:2]
	}
	const funcsPerFile = 25
	const seed = 2002
	const ratioBound = 2.0

	bench := scaleBench{
		Experiment:    "scale-streaming",
		Workload:      fmt.Sprintf("MixedTree(N,%d,%d), full bundled checker suite, child process per cell", funcsPerFile, seed),
		Host:          profiling.Host(),
		MaxResidentMB: scaleMaxResidentMB,
		Short:         *scaleShortFlag,
	}

	modes := []struct {
		name   string
		jobs   int
		spill  bool
		cached bool
	}{
		{"spill-off-j1", 1, false, false}, // reference: unbounded, in-memory
		{"spill-on-j1", 1, true, false},
		{"spill-on-j8", 8, true, false},
		{"spill-on-cached-j1", 1, true, true}, // cold incremental cache
	}

	// peak RSS and wall-clock of the -j 1 cells, per size, spill on
	// and off, for the growth and slowdown ratios.
	rssOn := map[int]int64{}
	rssOff := map[int]int64{}
	secOn := map[int]float64{}
	secOff := map[int]float64{}

	fmt.Println("files  mode                 seconds  kloc/min  peak-rss-mb  evictions  identical")
	for _, n := range sizes {
		var refDigest string
		for _, m := range modes {
			r := scaleCellExec(scaleCellSpec{
				Files: n, Funcs: funcsPerFile, Seed: seed,
				Jobs: m.jobs, Spill: m.spill, Cached: m.cached,
			})
			if m.name == "spill-off-j1" {
				refDigest = r.Output
				rssOff[n] = r.PeakRSSBytes
				secOff[n] = r.Seconds
			}
			if m.name == "spill-on-j1" {
				rssOn[n] = r.PeakRSSBytes
				secOn[n] = r.Seconds
			}
			if m.spill && (r.Evictions == 0 || r.ASTsReleased == 0) {
				die(fmt.Errorf("scale %d files %s: streaming mode did not engage (evictions=%d asts-released=%d)",
					n, m.name, r.Evictions, r.ASTsReleased))
			}
			run := scaleRun{
				Files: n, Lines: r.Lines, Mode: m.name,
				Jobs: m.jobs, Spill: m.spill, Cached: m.cached,
				Seconds:      r.Seconds,
				KLoCPerMin:   float64(r.Lines) / 1000 / (r.Seconds / 60),
				PeakRSSBytes: r.PeakRSSBytes,
				Evictions:    r.Evictions,
				ASTsReleased: r.ASTsReleased,
				Output:       r.Output,
				Identical:    r.Output == refDigest,
			}
			bench.Runs = append(bench.Runs, run)
			fmt.Printf("%5d  %-19s  %7.3f  %8.0f  %11.1f  %9d  %v\n",
				n, m.name, run.Seconds, run.KLoCPerMin,
				float64(run.PeakRSSBytes)/(1<<20), run.Evictions, run.Identical)
			if !run.Identical {
				die(fmt.Errorf("scale %d files: %s output differs from the in-memory reference — streaming changed results", n, m.name))
			}
		}
	}

	biggest := sizes[len(sizes)-1]
	if secOff[biggest] > 0 {
		bench.WallRatioSpillOnJ1 = secOn[biggest] / secOff[biggest]
		fmt.Printf("wall-clock at %d files, -j 1: spill on is %.2fx the unbounded reference\n",
			biggest, bench.WallRatioSpillOnJ1)
	}

	if !*scaleShortFlag {
		big, small := sizes[len(sizes)-1], sizes[len(sizes)-3] // 32 vs 8: a 4x tree
		bench.RSSRatioSpillOn = float64(rssOn[big]) / float64(rssOn[small])
		bench.RSSRatioSpillOff = float64(rssOff[big]) / float64(rssOff[small])
		bench.RatioBound = ratioBound
		fmt.Printf("peak-RSS growth for a 4x tree (%d -> %d files): %.2fx with spill on, %.2fx off (bound: <= %.1fx on)\n",
			small, big, bench.RSSRatioSpillOn, bench.RSSRatioSpillOff, ratioBound)
		if bench.RSSRatioSpillOn > ratioBound {
			die(fmt.Errorf("scale: peak RSS grew %.2fx for a 4x tree with spill on (bound %.1fx)",
				bench.RSSRatioSpillOn, ratioBound))
		}
	}

	data, err := json.MarshalIndent(bench, "", "  ")
	if err != nil {
		die(err)
	}
	if err := os.WriteFile("BENCH_scale.json", append(data, '\n'), 0o644); err != nil {
		die(err)
	}
	fmt.Println("wrote BENCH_scale.json")
}
