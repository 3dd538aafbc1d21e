// Command xgcc is the analysis driver: it applies metal checkers to C
// sources and prints ranked error reports, reproducing the workflow of
// the paper's xgcc system.
//
// Usage:
//
//	xgcc -checker free,lock file1.c file2.c
//	xgcc -checker-file my_checker.metal -rank z file.c
//	xgcc -checker-file my_checker.metal -validate
//	xgcc -list
//
// -validate runs the admission harness (DESIGN.md §14) instead of an
// analysis: the checker executes against a seeded true/false-positive
// corpus under panic, budget, and time isolation, and the structured
// verdict decides the exit code — the same gate xgccd applies before
// an uploaded checker can be enabled.
//
// Exit codes: 0 clean (or checker admitted with -validate), 1
// findings with -exit-code (or checker rejected with -validate), 2
// usage or analysis error, 3 cancelled or timed out (-timeout,
// SIGINT, SIGTERM).
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"syscall"

	"time"

	"repro/internal/cache"
	"repro/internal/checkers"
	"repro/internal/harness"
	"repro/internal/profiling"
	"repro/mc"
)

func main() {
	var (
		checkerNames = flag.String("checker", "free", "comma-separated bundled checker names")
		checkerFile  = flag.String("checker-file", "", "path to a metal checker source file")
		list         = flag.Bool("list", false, "list bundled checkers and exit")
		rankMode     = flag.String("rank", "generic", "report ordering: generic, z, or grouped")
		stats        = flag.Bool("stats", false, "print engine statistics")
		supergraph   = flag.String("supergraph", "", "print block/suffix summaries for the named function (Figure 5 style) under each checker, from an inspection run of its own after the analysis")
		twoPass      = flag.Bool("two-pass", false, "emit ASTs to temp files and reload them (the paper's pass 1/pass 2 pipeline)")
		detailed     = flag.Bool("why", false, "print why-traces with each report")
		validate     = flag.Bool("validate", false, "run the admission harness on the checker instead of analyzing files: exit 0 admitted, 1 rejected, 2 error (combine with -checker-file or -checker; -json for the raw verdict)")
		jsonOut      = flag.Bool("json", false, "emit reports as JSON lines")
		marks        = flag.String("mark", "", "function annotations, e.g. might_sleep=blocking,panic=pathkill")
		baseline     = flag.String("baseline", "", "history file: suppress reports recorded there; new reports are appended (§8 History)")
		jobs         = flag.Int("j", 0, "parallel workers for parsing and checker execution (0 = GOMAXPROCS); output is identical at every level")
		cacheDir     = flag.String("cache", "", "persist per-unit results here; warm re-runs replay unchanged units (DESIGN.md §8)")
		exitCode     = flag.Bool("exit-code", false, "exit 1 if any non-suppressed report is emitted (errors exit 2, cancellation exits 3)")
		timeout      = flag.Duration("timeout", 0, "abort the analysis after this duration, exit 3 (0 = unbounded)")
		pathSteps    = flag.Int64("budget-path-steps", 0, "per-path program-point budget; a tripped budget truncates the path and flags the run degraded (0 = unbounded)")
		funcBlocks   = flag.Int64("budget-func-blocks", 0, "per-root block-visit budget (0 = unbounded)")
		funcTime     = flag.Duration("budget-func-time", 0, "per-root wall-clock budget (0 = unbounded)")
		cpuprofile   = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile   = flag.String("memprofile", "", "write an allocation profile to this file on exit")
	)
	flag.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: xgcc [flags] file.c ...")
		fmt.Fprintln(os.Stderr, "exit codes: 0 clean; 1 findings (-exit-code); 2 usage/analysis error; 3 cancelled or timed out")
		flag.PrintDefaults()
	}
	flag.Parse()
	switch *rankMode {
	case "generic", "z", "grouped":
	default:
		fatal(fmt.Errorf("-rank %q: want generic, z or grouped", *rankMode))
	}

	if *list {
		for _, s := range checkers.All() {
			fmt.Printf("%-14s %s\n", s.Name, s.Doc)
		}
		return
	}
	budgets := mc.Budgets{
		PathSteps:  *pathSteps,
		FuncBlocks: *funcBlocks,
		FuncTime:   *funcTime,
	}
	if *validate {
		runValidate(*checkerFile, *checkerNames, *jobs, *timeout, budgets, *jsonOut)
		return
	}
	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "xgcc: no input files (try -list, or: xgcc -checker free file.c)")
		os.Exit(2)
	}

	// Every exit path must flush the profiles: the normal returns run
	// the defer, while fatal() and the explicit os.Exit sites (which
	// skip defers) call the idempotent stopProf themselves.
	if sp, err := profiling.Start(*cpuprofile, *memprofile); err != nil {
		fatal(err)
	} else {
		stopProf = sp
	}
	defer stopProf()

	a := mc.NewAnalyzer()
	opts := mc.DefaultOptions()
	opts.Budgets = budgets
	cfg := mc.RunConfig{Options: &opts, Jobs: *jobs}
	if *cacheDir != "" {
		ds, err := cache.NewDirStore(*cacheDir)
		if err != nil {
			fatal(err)
		}
		cfg.CacheStore = ds
	}
	if err := a.Configure(cfg); err != nil {
		fatal(err)
	}

	// Both modes take one file list: cleaned names, a directory's .c
	// files, a duplicate an error.
	paths, err := mc.SourcePaths(flag.Args())
	if err != nil {
		fatal(err)
	}
	for _, path := range paths {
		if *twoPass {
			data, err := os.ReadFile(path)
			if err != nil {
				fatal(err)
			}
			emitted, err := mc.EmitAST(path, string(data))
			if err != nil {
				fatal(err)
			}
			tmp, err := os.CreateTemp("", "xgcc-ast-*.sx")
			if err != nil {
				fatal(err)
			}
			if _, err := tmp.Write(emitted); err != nil {
				fatal(err)
			}
			tmp.Close()
			reloaded, err := os.ReadFile(tmp.Name())
			if err != nil {
				fatal(err)
			}
			os.Remove(tmp.Name())
			f, err := mc.LoadAST(reloaded)
			if err != nil {
				fatal(err)
			}
			a.AddAST(f)
			continue
		}
		if err := a.AddFile(path); err != nil {
			fatal(err)
		}
	}

	if *checkerFile != "" {
		data, err := os.ReadFile(*checkerFile)
		if err != nil {
			fatal(err)
		}
		if err := a.LoadChecker(string(data)); err != nil {
			fatal(err)
		}
	}
	// -checker adds to -checker-file only when given: its default,
	// free, is for a run that names no checker at all.
	checkerSet := false
	flag.Visit(func(f *flag.Flag) { checkerSet = checkerSet || f.Name == "checker" })
	if *checkerFile == "" || checkerSet {
		for _, name := range strings.Split(*checkerNames, ",") {
			name = strings.TrimSpace(name)
			if name == "" {
				continue
			}
			if err := a.LoadBundledChecker(name); err != nil {
				fatal(err)
			}
		}
	}
	if *marks != "" {
		for _, m := range strings.Split(*marks, ",") {
			fn, key, ok := strings.Cut(m, "=")
			if !ok || fn == "" || key == "" {
				fatal(fmt.Errorf("-mark entry %q: want function=annotation", m))
			}
			a.MarkFunction(fn, key)
		}
	}

	if *baseline != "" {
		old, err := readBaseline(*baseline)
		if err != nil {
			fatal(err)
		}
		a.SetHistory(old)
	}

	// SIGINT/SIGTERM cancel the analysis mid-traversal; together with
	// -timeout both surface as exit 3, distinct from findings (1) and
	// errors (2).
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	res, err := a.RunContext(ctx)
	var graphs map[string]string // -json prints reports only
	if err == nil && *supergraph != "" && !*jsonOut {
		graphs, err = a.Supergraph(ctx, *supergraph)
	}
	if err != nil {
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			fmt.Fprintln(os.Stderr, "xgcc: analysis cancelled:", err)
			stopProf()
			os.Exit(3)
		}
		fatal(err)
	}
	for _, f := range res.Failures {
		fmt.Fprintf(os.Stderr, "xgcc: checker %s panicked at root %s (contained): %s\n", f.Checker, f.Root, f.Panic)
	}
	if res.Degraded {
		fmt.Fprintf(os.Stderr, "xgcc: results degraded: %d traversal(s) truncated by a budget or cap\n", len(res.Degradations))
	}
	if *baseline != "" {
		if err := appendBaseline(*baseline, res.Reports); err != nil {
			fatal(err)
		}
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		for _, r := range res.ZRanked() {
			if err := enc.Encode(jsonReport(r)); err != nil {
				fatal(err)
			}
		}
		if *exitCode && len(res.Reports) > 0 {
			stopProf()
			os.Exit(1)
		}
		return
	}

	switch *rankMode {
	case "z":
		for _, r := range res.ZRanked() {
			printReport(r, *detailed)
		}
	case "grouped":
		for _, g := range res.Grouped() {
			fmt.Printf("=== rule %s (z=%.2f, %d reports) ===\n", g.Rule, g.Z, len(g.Reports))
			for _, r := range g.Reports {
				printReport(r, *detailed)
			}
		}
	default:
		for _, r := range res.Ranked() {
			printReport(r, *detailed)
		}
	}
	fmt.Printf("%d reports\n", len(res.Reports))

	for _, name := range sortedNames(graphs) {
		fmt.Printf("--- supergraph of %s under checker %s ---\n", *supergraph, name)
		fmt.Print(graphs[name])
	}
	if *stats {
		for _, n := range sortedNames(res.Stats) {
			s := res.Stats[n]
			fmt.Printf("checker %s: points=%d blocks=%d paths=%d pruned=%d cache-hits=%d fn-cache-hits=%d roots-skipped=%d recursion-cuts=%d fp-fallbacks=%d statics-held=%d\n",
				n, s.Points, s.Blocks, s.Paths, s.PrunedPaths, s.CacheHits, s.FuncCacheHits, s.RootsSkipped,
				s.RecursionCuts, s.FingerprintFallbacks, s.StaticsHeld)
		}
		fmt.Printf("stream: evictions=%d asts-released=%d\n", res.Spill.Evictions, res.Spill.ASTsReleased)
		if in := res.Incr; in != nil {
			fmt.Printf("cache: files parsed=%d; units live=%d replayed=%d; funcs live=%d replayed=%d invalidated=%d; bodies parsed=%d/%d; store hits=%d misses=%d puts=%d put-errors=%d\n",
				in.FilesReparsed, in.UnitsLive, in.UnitsReplayed,
				in.FuncsAnalyzedLive, in.FuncsAnalyzedReplayed, in.FuncsInvalidated,
				in.BodiesParsed, len(res.Program.All),
				in.CacheHits, in.CacheMisses, in.CachePuts, in.CachePutErrors)
			if st := in.Store; st != nil {
				fmt.Printf("store: records=%d live-bytes=%d superseded-bytes=%d\n",
					st.Records, st.LiveBytes, st.SupersededBytes)
			}
		}
	}
	if *exitCode && len(res.Reports) > 0 {
		stopProf()
		os.Exit(1)
	}
}

// stopProf flushes any active profiles; fatal and the explicit os.Exit
// sites call it because os.Exit skips deferred functions.
var stopProf = func() {}

// sortedNames lists a per-checker map's names in sorted order: every
// per-checker section prints in it, so output never follows map order.
func sortedNames[V any](m map[string]V) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// runValidate is the -validate mode: the admission harness instead of
// an analysis. The checker comes from -checker-file when given,
// otherwise from the (single) -checker name; budget flags override the
// harness defaults so a stricter local gate is one flag away.
func runValidate(checkerFile, checkerNames string, jobs int, timeout time.Duration, budgets mc.Budgets, jsonOut bool) {
	var src string
	if checkerFile != "" {
		data, err := os.ReadFile(checkerFile)
		if err != nil {
			fatal(err)
		}
		src = string(data)
	} else {
		names := strings.Split(checkerNames, ",")
		if len(names) != 1 || strings.TrimSpace(names[0]) == "" {
			fatal(errors.New("-validate takes one checker: -checker-file path, or a single -checker name"))
		}
		name := strings.TrimSpace(names[0])
		s, ok := checkers.Lookup(name)
		if !ok {
			fatal(&checkers.UnknownCheckerError{Name: name})
		}
		src = s.Text
	}

	cfg := harness.DefaultConfig()
	cfg.Jobs = jobs
	if timeout > 0 {
		cfg.Timeout = timeout
	}
	if budgets.PathSteps > 0 {
		cfg.Budgets.PathSteps = budgets.PathSteps
	}
	if budgets.FuncBlocks > 0 {
		cfg.Budgets.FuncBlocks = budgets.FuncBlocks
	}
	if budgets.FuncTime > 0 {
		cfg.Budgets.FuncTime = budgets.FuncTime
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	v, err := harness.Validate(ctx, src, cfg)
	if err != nil {
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			fmt.Fprintln(os.Stderr, "xgcc: validation cancelled:", err)
			stopProf()
			os.Exit(3)
		}
		fatal(err)
	}

	if jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(v); err != nil {
			fatal(err)
		}
	} else {
		fmt.Printf("checker %s: %s\n", v.Checker, v.Status)
		fmt.Printf("  reports=%d true-positives=%d false-positives=%d seeded-bugs=%d\n",
			v.Reports, v.TruePositives, v.FalsePositives, v.SeededBugs)
		fmt.Printf("  kill-rate=%.2f z=%.2f degradations=%d elapsed=%dms\n",
			v.KillRate, v.Z, v.Degradations, v.ElapsedMS)
		if v.Panicked {
			fmt.Printf("  panicked: %s\n", v.PanicValue)
		}
		for _, r := range v.Reasons {
			fmt.Printf("  rejected: %s\n", r)
		}
	}
	if !v.Admitted() {
		stopProf()
		os.Exit(1)
	}
}

// reportJSON is the machine-readable report shape.
type reportJSON struct {
	File            string   `json:"file"`
	Line            int      `json:"line"`
	Col             int      `json:"col"`
	Checker         string   `json:"checker"`
	Rule            string   `json:"rule"`
	Message         string   `json:"message"`
	Function        string   `json:"function"`
	Class           string   `json:"class,omitempty"`
	Distance        int      `json:"distance"`
	Conditionals    int      `json:"conditionals"`
	SynonymDepth    int      `json:"synonym_depth,omitempty"`
	Interprocedural bool     `json:"interprocedural,omitempty"`
	Trace           []string `json:"trace,omitempty"`
}

func jsonReport(r *mc.Report) reportJSON {
	return reportJSON{
		File:            r.Pos.File,
		Line:            r.Pos.Line,
		Col:             r.Pos.Col,
		Checker:         r.Checker,
		Rule:            r.Rule,
		Message:         r.Msg,
		Function:        r.Func,
		Class:           string(r.Class),
		Distance:        r.Distance(),
		Conditionals:    r.Conditionals,
		SynonymDepth:    r.SynonymDepth,
		Interprocedural: r.Interprocedural,
		Trace:           r.Trace,
	}
}

func printReport(r *mc.Report, detailed bool) {
	if detailed {
		fmt.Print(r.Detailed())
		return
	}
	fmt.Println(r)
}

// baselineEntry is the persisted history record: exactly the §8
// matching fields ("relatively invariant under edits"), no line
// numbers.
type baselineEntry struct {
	File    string   `json:"file"`
	Func    string   `json:"function"`
	Vars    []string `json:"vars"`
	Checker string   `json:"checker"`
	Message string   `json:"message"`
}

func readBaseline(path string) ([]*mc.Report, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var entries []baselineEntry
	if len(data) > 0 {
		if err := json.Unmarshal(data, &entries); err != nil {
			return nil, fmt.Errorf("baseline %s: %w", path, err)
		}
	}
	out := make([]*mc.Report, len(entries))
	for i, e := range entries {
		r := &mc.Report{Checker: e.Checker, Msg: e.Message, Func: e.Func, Vars: e.Vars}
		r.Pos.File = e.File
		out[i] = r
	}
	return out, nil
}

func appendBaseline(path string, reports []*mc.Report) error {
	old, err := readBaseline(path)
	if err != nil {
		return err
	}
	seen := map[string]bool{}
	var entries []baselineEntry
	add := func(r *mc.Report) {
		key := r.HistoryKey()
		if seen[key] {
			return
		}
		seen[key] = true
		entries = append(entries, baselineEntry{
			File: r.Pos.File, Func: r.Func, Vars: r.Vars,
			Checker: r.Checker, Message: r.Msg,
		})
	}
	for _, r := range old {
		add(r)
	}
	for _, r := range reports {
		add(r)
	}
	data, err := json.MarshalIndent(entries, "", "  ")
	if err != nil {
		return err
	}
	return atomicWrite(path, data)
}

// atomicWrite replaces path via a temp file in the same directory plus
// rename, so a crash mid-write never leaves a truncated baseline (the
// old file survives intact until the rename commits).
func atomicWrite(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return nil
}

// fatal reports a usage or environment error. Exit code 2 keeps these
// distinct from -exit-code's "findings" exit 1.
func fatal(err error) {
	fmt.Fprintln(os.Stderr, "xgcc:", err)
	stopProf()
	os.Exit(2)
}
