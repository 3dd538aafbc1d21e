package main

// One workload in this process: set-up, warm-up, the timed window (or,
// traced, a few baseline ops and one traced op), then the checks.

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/profiling"
	"repro/internal/prog"
	"repro/internal/server"
	"repro/mc"
)

const (
	// setupReps: set-up runs this many times and setup_s is the median,
	// because one set-up per run is one sample per run.
	setupReps = 3
	// minOps is the fewest timed ops a window holds, unless the host is
	// so slow that they take more than maxWindows windows. The driver
	// gives all its runs under an hour: nine ops of a second or more, on
	// top of three set-ups, did not fit when the host ran slow.
	minOps     = 5
	maxWindows = 3
	// baselineOps is how many untraced ops a traced run times to
	// measure tracing overhead against; tracedOpCount is how many
	// traced ones.
	baselineOps   = 5
	tracedOpCount = 3
)

// Metric is one reported value.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Line is the last line a run prints: the driver's contract.
type Line struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// Detail is what the suite keeps of one run beyond Line.
type Detail struct {
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Traced     bool    `json:"traced"`
	Tree       string  `json:"tree"`
	Size       Size    `json:"tree_size"`
	Samples    int     `json:"samples"`
	KlocPerMin float64 `json:"kloc_per_min"`
	// HostSpeed is calRef over the run's median reference sample;
	// Measured holds the medians of the time metrics before scaling;
	// WaitedSeconds is how long the run waited for a starved host.
	HostSpeed     float64            `json:"host_speed"`
	Measured      map[string]float64 `json:"measured_seconds,omitempty"`
	WaitedSeconds float64            `json:"waited_seconds,omitempty"`
	Quartiles     map[string]Summary `json:"quartiles,omitempty"`
	Failures      []string           `json:"failures,omitempty"`
	TraceFile     string             `json:"trace_file,omitempty"`
	// SelfSeconds is, per span name of a traced run, duration minus the
	// time child spans cover.
	SelfSeconds map[string]float64 `json:"self_seconds,omitempty"`
	Line
}

// sample is one timed op, in measured seconds, and the reference
// sample taken just before it.
type sample struct {
	ref                               refSample
	wall, cpu, allocs, allocMB, rssMB float64
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// resetPeakRSS restarts the kernel's high-water mark of this process
// at its current resident size. It fails where /proc is read-only; the
// mark then covers the process's whole life.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// timeOp measures one call: wall clock, user+sys CPU of the whole
// process (GC and every goroutine included), the allocator's counters
// and the peak resident size. The reference sample before it leaves the
// heap collected and handed back to the OS, so every op starts from the
// same small resident set, as a fresh xgcc process would, and its
// high-water mark is its own.
func timeOp(h *host, run func() (outcome, error)) (sample, outcome, error) {
	ref := h.calibrate()
	resetPeakRSS()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	c0 := cpuSeconds()
	t0 := time.Now()
	out, err := run()
	wall := time.Since(t0)
	c1 := cpuSeconds()
	runtime.ReadMemStats(&m1)
	return sample{
		ref:     ref,
		wall:    wall.Seconds(),
		cpu:     c1 - c0,
		allocs:  float64(m1.Mallocs - m0.Mallocs),
		allocMB: float64(m1.TotalAlloc-m0.TotalAlloc) / 1e6,
		rssMB:   float64(profiling.PeakRSS()) / 1e6,
	}, out, err
}

// opRecord is one op's checkable residue; the Result itself is let go
// so that it does not sit in the heap during the next op.
type opRecord struct {
	version int
	srcs    map[string]string
	got     Digests // only TextSet for served ops
	missed  int
	err     error
}

func record(out outcome, err error, t Tree) opRecord {
	rec := opRecord{version: out.version, srcs: out.srcs, err: err}
	switch {
	case err != nil:
	case out.res != nil:
		rec.got = digestsOf(out.res)
		rec.missed = missed(t.Bugs, reportedIn(out.res.Reports))
	default:
		var reply *server.AnalyzeResponse
		if reply, rec.err = decodeReply(out.reply); rec.err != nil {
			break
		}
		rec.err = complete(reply.Degraded, len(reply.Failures))
		var text []string
		reported := map[string]bool{}
		for _, r := range reply.Ranked {
			text = append(text, r.Text)
			reported[r.Checker+"\x00"+r.Func] = true
		}
		rec.got.TextSet = setDigest(text)
		rec.missed = missed(t.Bugs, reported)
	}
	if out.cleanup != nil {
		out.cleanup()
	}
	return rec
}

// reference is the plain engine's answer for one tree. The analyzer
// and its result are kept only for the tree a traced run asks for.
type reference struct {
	a   *mc.Analyzer
	res *mc.Result
	got Digests
	err error
}

// references runs the plain engine once per distinct tree, one
// single-job analyzer per core at a time, and lets go of every result
// but tree keep's once it is digested.
func references(trees map[int]map[string]string, keep int) map[int]*reference {
	out := make(map[int]*reference, len(trees))
	var mu sync.Mutex
	var wg sync.WaitGroup
	sem := make(chan struct{}, runtime.NumCPU())
	for v, srcs := range trees {
		wg.Add(1)
		sem <- struct{}{}
		go func(v int, srcs map[string]string) {
			defer wg.Done()
			defer func() { <-sem }()
			ref := &reference{}
			if ref.a, ref.res, ref.err = plain(srcs); ref.err == nil {
				ref.got = digestsOf(ref.res)
			}
			if v != keep {
				ref.a, ref.res = nil, nil
			}
			mu.Lock()
			out[v] = ref
			mu.Unlock()
		}(v, srcs)
	}
	wg.Wait()
	return out
}

// sameOutput holds an op's output to the plain engine's: byte for byte
// in rank order on the plain path, as a set of lines on the cache-aware
// path (see Digests), and by the reply's lines for a served op.
func sameOutput(w Workload, got, want Digests) bool {
	switch {
	case got.DetailedSet == "":
		return got.TextSet == want.TextSet
	case w.Cached:
		return got.DetailedSet == want.DetailedSet
	}
	return got.Ordered == want.Ordered
}

// verify holds every op to the ground truth and to the plain engine,
// and the generated tree to its pinned digest. It returns one message
// per failed op and any failure that is not an op's.
func verify(w Workload, seed int64, t Tree, recs []opRecord, keep int) (opFailures, other []string, refs map[int]*reference) {
	todo := map[int]map[string]string{}
	for _, r := range recs {
		if r.err == nil {
			todo[r.version] = r.srcs
		}
	}
	if seed == pinnedSeed {
		todo[0] = t.Srcs
	}
	refs = references(todo, keep)
	for i, r := range recs {
		ref := refs[r.version]
		switch {
		case r.err != nil:
			opFailures = append(opFailures, fmt.Sprintf("op %d: %v", i, r.err))
		case r.missed > 0:
			opFailures = append(opFailures, fmt.Sprintf("op %d: %d seeded bugs not reported", i, r.missed))
		case ref.err != nil:
			opFailures = append(opFailures, fmt.Sprintf("op %d: reference run: %v", i, ref.err))
		case !sameOutput(w, r.got, ref.got):
			opFailures = append(opFailures, fmt.Sprintf("op %d: output differs from the plain engine's on the same tree", i))
		}
	}
	if seed == pinnedSeed {
		want, err := expected()
		switch {
		case err != nil:
			other = append(other, err.Error())
		case refs[0].err != nil:
			other = append(other, "pinned digest: "+refs[0].err.Error())
		case refs[0].got.Ordered != want[w.Tree]:
			other = append(other, fmt.Sprintf("%s plain digest %s, expected.json pins %s", w.Tree, refs[0].got.Ordered, want[w.Tree]))
		}
	}
	if err := checkHistorical(); err != nil {
		other = append(other, err.Error())
	}
	return opFailures, other, refs
}

func sizeOf(t Tree) (Size, error) {
	p, err := prog.BuildSource(t.Srcs)
	if err != nil {
		return Size{}, err
	}
	s := Size{Files: len(t.Srcs), Funcs: len(p.All), Units: len(p.Units())}
	for _, src := range t.Srcs {
		s.Lines += strings.Count(src, "\n")
	}
	return s, nil
}

// runWorkload is the child process: one workload, one seed.
func runWorkload(w Workload, spec *Spec, seed int64, window time.Duration, traced bool, outDir string) (*Detail, error) {
	work, err := filepath.Abs(filepath.Join(outDir, fmt.Sprintf("work-%s-%d", w.Name, os.Getpid())))
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(work, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)
	// Streaming mode spills under os.TempDir; keep that inside the
	// checkout too.
	os.Setenv("TMPDIR", work)

	var p *probe
	if traced {
		p = newProbe(work)
	}

	// Set-up: generate the inputs, prime the store / boot the daemon,
	// run the warm-up op. Repeated; the last instance is the one the
	// timed ops run against.
	var (
		t      Tree
		inst   *instance
		setups []float64   // measured seconds
		cals   []refSample // before every set-up and op, and after the last op
		h      = &host{}
	)
	for rep := 0; rep < setupReps; rep++ {
		if inst != nil {
			inst.close()
		}
		cals = append(cals, h.calibrate())
		t0 := time.Now()
		if t, err = trees[w.Tree](seed); err != nil {
			return nil, err
		}
		if inst, err = w.prepare(t, filepath.Join(work, fmt.Sprintf("setup-%d", rep)), p); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		out, err := inst.next(0)()
		setups = append(setups, time.Since(t0).Seconds())
		if rec := record(out, err, t); rec.err != nil {
			inst.close()
			return nil, fmt.Errorf("warm-up op: %w", rec.err)
		}
	}
	defer inst.close()

	d := &Detail{Workload: w.Name, Seed: seed, Traced: traced, Tree: w.Tree}
	d.Metrics = map[string]Metric{}

	// The timed ops. A traced run needs only a baseline for the
	// overhead ratio; end-to-end numbers always come from untraced runs.
	var samples []sample
	var recs []opRecord
	start := time.Now()
	enough := func() bool {
		if traced {
			return len(samples) == baselineOps
		}
		el := time.Since(start)
		return (el >= window && len(samples) >= minOps) || el >= maxWindows*window
	}
	for i := 1; !enough(); i++ {
		s, out, err := timeOp(h, inst.next(i))
		samples = append(samples, s)
		cals = append(cals, s.ref)
		recs = append(recs, record(out, err, t))
	}
	cals = append(cals, h.calibrate())
	var layers map[string]float64
	if traced {
		var traced []opRecord
		if layers, traced, err = tracedOps(w, p, inst, len(samples)+1, t, pick(samples, func(s sample) float64 { return s.wall })); err != nil {
			return nil, err
		}
		recs = append(recs, traced...)
	}
	// The traced op is the last; the output stages are timed on the
	// plain engine's result for its tree.
	keep := -1
	if traced {
		keep = recs[len(recs)-1].version
	}
	opFailures, other, refs := verify(w, seed, t, recs, keep)
	if traced && refs[keep].err == nil {
		rankAndVerify(p.tr, layers, refs[keep])
	}
	d.Failures = append(opFailures, other...)
	d.Attempted, d.Failed = len(recs), len(opFailures)
	d.Correct = len(d.Failures) == 0
	d.Samples = len(samples)
	if d.Size, err = sizeOf(t); err != nil {
		return nil, err
	}

	measured := map[string][]float64{
		"setup_s":   setups,
		"op_wall_s": pick(samples, func(s sample) float64 { return s.wall }),
		"op_cpu_s":  pick(samples, func(s sample) float64 { return s.cpu }),
	}
	refWall := make([]float64, len(cals))
	refCPU := make([]float64, len(cals))
	for i, c := range cals {
		refWall[i], refCPU[i] = c.wall, c.cpu
	}
	d.HostSpeed = calRef.wall / median(refWall)
	d.WaitedSeconds = h.waited.Seconds()
	d.Measured = map[string]float64{}
	for name, vs := range measured {
		d.Measured[name] = median(vs)
	}
	values := map[string][]float64{
		"setup_s":     atReference(setups, refWall, calRef.wall),
		"op_wall_s":   atReference(measured["op_wall_s"], refWall[setupReps:], calRef.wall),
		"op_cpu_s":    atReference(measured["op_cpu_s"], refCPU[setupReps:], calRef.cpu),
		"op_allocs":   pick(samples, func(s sample) float64 { return s.allocs }),
		"op_alloc_mb": pick(samples, func(s sample) float64 { return s.allocMB }),
		"peak_rss_mb": pick(samples, func(s sample) float64 { return s.rssMB }),
	}
	d.KlocPerMin = float64(d.Size.Lines) / 1e3 / d.Measured["op_wall_s"] * 60
	if traced {
		for _, m := range spec.PerLayer {
			v, ok := layers[m.Name]
			if !ok {
				return nil, fmt.Errorf("BENCHMARK.json declares per-layer metric %q, which the traced run does not produce", m.Name)
			}
			d.Metrics[m.Name] = Metric{Value: v, Unit: m.Unit}
		}
		d.TraceFile = filepath.Join(outDir, "trace-"+w.Name+".json")
		if err := writeChrome(d.TraceFile, p.tr.spans); err != nil {
			return nil, err
		}
		d.SelfSeconds = map[string]float64{}
		for name, self := range selfTimes(p.tr.spans) {
			d.SelfSeconds[name] = self.Seconds()
		}
		return d, nil
	}
	d.Quartiles = map[string]Summary{}
	for _, m := range spec.EndToEnd {
		vs, ok := values[m.Name]
		if !ok {
			return nil, fmt.Errorf("BENCHMARK.json declares end-to-end metric %q, which the benchmark does not produce", m.Name)
		}
		d.Quartiles[m.Name] = summarize(vs)
		d.Metrics[m.Name] = Metric{Value: median(vs), Unit: m.Unit}
	}
	return d, nil
}

func pick(samples []sample, f func(sample) float64) []float64 {
	out := make([]float64, len(samples))
	for i, s := range samples {
		out[i] = f(s)
	}
	return out
}
