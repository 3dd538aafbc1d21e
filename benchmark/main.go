// Command benchmark is this repository's one benchmark: it generates
// source trees from a seed, runs seven workloads through the analyzer,
// the daemon and the fleet, checks every output, and reports the
// end-to-end metrics BENCHMARK.json declares — or, traced, the
// per-layer ones. See README.md.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

func main() {
	seed := flag.Int64("seed", pinnedSeed, "workload seed; the same seed gives the same inputs")
	names := flag.String("workload", "", "comma-separated workloads; one name runs in this process, none or several run each in a child")
	seconds := flag.Float64("seconds", 0, "length of a timed window in seconds (default: run_seconds of BENCHMARK.json)")
	window := flag.Duration("window", 0, "length of a timed window as a duration; overrides -seconds")
	trace := flag.Int("trace", 0, "1 = traced run: per-layer metrics and a trace file per workload")
	out := flag.String("out", "", "directory for results, trace files and scratch space (default: benchmark/out)")
	cmp := flag.Bool("compare", false, "compare two sides, each one result file or several separated by commas: -compare parent.json change.json")
	flag.Parse()

	if err := run(*seed, *names, *seconds, *window, *trace == 1, *out, *cmp, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(seed int64, names string, seconds float64, window time.Duration, traced bool, out string, cmp bool, args []string) error {
	root, err := repoRoot()
	if err != nil {
		return err
	}
	spec, err := loadSpec(root)
	if err != nil {
		return err
	}
	if cmp {
		if len(args) != 2 {
			return fmt.Errorf("-compare takes two sides: parent.json[,parent2.json...] change.json[,...]")
		}
		parent, err := loadSide(args[0])
		if err != nil {
			return err
		}
		change, err := loadSide(args[1])
		if err != nil {
			return err
		}
		worse, err := compare(os.Stdout, spec, parent, change)
		if err == nil && worse {
			err = fmt.Errorf("at least one metric is worse than its bound allows")
		}
		return err
	}
	if window == 0 {
		if seconds == 0 {
			seconds = float64(spec.RunSeconds)
		}
		window = time.Duration(seconds * float64(time.Second))
	}
	if out == "" {
		out = filepath.Join(root, "benchmark", "out")
	}
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}

	var chosen []Workload
	for _, n := range strings.Split(names, ",") {
		if n == "" {
			continue
		}
		w, ok := workloadByName(n)
		if !ok {
			return fmt.Errorf("unknown workload %q", n)
		}
		chosen = append(chosen, w)
	}
	if len(chosen) == 1 {
		return child(chosen[0], spec, seed, window, traced, out)
	}
	if len(chosen) == 0 {
		chosen = workloads
	}
	return suite(chosen, spec, seed, window, traced, out, root)
}

// child runs one workload in this process and ends its output with
// the detail line the suite reads and the result line the driver reads.
func child(w Workload, spec *Spec, seed int64, window time.Duration, traced bool, out string) error {
	d, err := runWorkload(w, spec, seed, window, traced, out)
	if err != nil {
		return fmt.Errorf("%s: %w", w.Name, err)
	}
	printDetail(d, spec, traced)
	detail, err := json.Marshal(d)
	if err != nil {
		return err
	}
	line, err := json.Marshal(d.Line)
	if err != nil {
		return err
	}
	fmt.Printf("detail: %s\n%s\n", detail, line)
	if !d.Correct {
		return fmt.Errorf("%s: %d of %d ops failed their checks", w.Name, d.Failed, d.Attempted)
	}
	return nil
}

func printDetail(d *Detail, spec *Spec, traced bool) {
	fmt.Printf("%s  seed %d  tree %s (%d files, %d lines, %d funcs, %d units)  %d timed ops  host speed %.2f",
		d.Workload, d.Seed, d.Tree, d.Size.Files, d.Size.Lines, d.Size.Funcs, d.Size.Units, d.Samples, d.HostSpeed)
	if d.WaitedSeconds > 0 {
		fmt.Printf("  waited %.1f s for a starved host", d.WaitedSeconds)
	}
	fmt.Println()
	list := spec.EndToEnd
	if traced {
		list = spec.PerLayer
	}
	for _, m := range list {
		v, ok := d.Metrics[m.Name]
		if !ok {
			continue
		}
		extra := ""
		if q, ok := d.Quartiles[m.Name]; ok && q.N > 1 {
			extra = fmt.Sprintf("  (n=%d, quartiles %.6g..%.6g, range %.6g..%.6g)", q.N, q.Q1, q.Q3, q.Min, q.Max)
		}
		if raw, ok := d.Measured[m.Name]; ok {
			extra += fmt.Sprintf("  [measured %.6g s]", raw)
		}
		if m.Name == "op_wall_s" {
			extra += fmt.Sprintf("  [%.0f kloc/min]", d.KlocPerMin)
		}
		fmt.Printf("  %-28s %14.6g %-8s%s\n", m.Name, v.Value, v.Unit, extra)
	}
	if len(d.SelfSeconds) > 0 {
		names := make([]string, 0, len(d.SelfSeconds))
		for n := range d.SelfSeconds {
			names = append(names, n)
		}
		sort.Slice(names, func(i, j int) bool { return d.SelfSeconds[names[i]] > d.SelfSeconds[names[j]] })
		fmt.Printf("  span self times (all traced ops and the replay; trace in %s):\n", d.TraceFile)
		for _, n := range names {
			fmt.Printf("    %-32s %10.6f s\n", n, d.SelfSeconds[n])
		}
	}
	for _, f := range d.Failures {
		fmt.Println("  FAILED:", f)
	}
}

// suite runs each workload in a child process of its own, twice when
// tracing (the untraced child gives the end-to-end metrics), and
// writes the result file.
func suite(chosen []Workload, spec *Spec, seed int64, window time.Duration, traced bool, out, root string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	res := Result{
		Seed: seed, WindowSeconds: window.Seconds(),
		Nproc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Jobs: jobs,
		GoVersion: runtime.Version(), Commit: "unknown",
		LoadShape: "closed loop, 1 caller, one child process per workload",
	}
	if head, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output(); err == nil {
		res.Commit = strings.TrimSpace(string(head))
	}
	failed := false
	for _, w := range chosen {
		modes := []int{0}
		if traced {
			modes = append(modes, 1)
		}
		var merged *Detail
		for _, mode := range modes {
			cmd := exec.Command(self, "-workload", w.Name, "-seed", fmt.Sprint(seed),
				"-window", window.String(), "-trace", fmt.Sprint(mode), "-out", out)
			cmd.Stderr = os.Stderr
			stdout, runErr := cmd.Output()
			d, err := parseChild(stdout)
			if err != nil {
				return fmt.Errorf("%s: %v (child: %v)", w.Name, err, runErr)
			}
			failed = failed || runErr != nil || !d.Correct
			printDetail(d, spec, mode == 1)
			if merged == nil {
				merged = d
				continue
			}
			for k, v := range d.Metrics {
				merged.Metrics[k] = v
			}
			merged.Traced, merged.TraceFile, merged.SelfSeconds = true, d.TraceFile, d.SelfSeconds
			merged.Attempted += d.Attempted
			merged.Failed += d.Failed
			merged.Correct = merged.Correct && d.Correct
			merged.Failures = append(merged.Failures, d.Failures...)
		}
		res.Workloads = append(res.Workloads, *merged)
	}
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(out, "result.json")
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Println("result written to", path)
	if failed {
		return fmt.Errorf("at least one workload failed its checks")
	}
	return nil
}

// parseChild finds the detail line in a child's standard output.
func parseChild(stdout []byte) (*Detail, error) {
	sc := bufio.NewScanner(bytes.NewReader(stdout))
	sc.Buffer(nil, 16<<20)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "detail: "); ok {
			var d Detail
			if err := json.Unmarshal([]byte(rest), &d); err != nil {
				return nil, err
			}
			return &d, nil
		}
	}
	return nil, fmt.Errorf("child printed no detail line")
}
