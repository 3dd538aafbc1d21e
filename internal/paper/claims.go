package paper

import (
	"context"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"repro/internal/cc"
	"repro/internal/checkers"
	"repro/internal/core"
	"repro/internal/prog"
	"repro/internal/rank"
	"repro/internal/report"
	"repro/internal/workload"
	"repro/mc"
)

// e1Instances are E1's rows: how many freed pointers one function tracks.
var e1Instances = []int{1, 2, 4, 8, 16, 32, 64}

// e1Run is E1's row: one function tracking k freed pointers through 8
// branches.
func e1Run(k int) run {
	return run{map[string]string{"s.c": workload.InstanceScaling(k, 8).Source}, checkers.Free, core.DefaultOptions()}
}

func e1(w io.Writer) {
	fmt.Fprintln(w, "instances  points-visited  blocks  paths  time")
	for _, k := range e1Instances {
		r := e1Run(k)
		t0 := time.Now()
		en, _ := r.engine()
		d := since(t0)
		fmt.Fprintf(w, "%9d  %14d  %6d  %5d  %v\n", k, en.Stats.Points, en.Stats.Blocks, en.Stats.Paths, d.Round(time.Microsecond))
	}
	fmt.Fprintln(w, "(§5.2: independence makes point visits scale linearly, not exponentially)")
}

// e2Callsites are E2's rows: how many callsites reach one helper.
var e2Callsites = []int{4, 16, 64}

// e2Runs are a row's two runs, with the function cache and without it.
func e2Runs(m int) (on, off run) {
	on = run{map[string]string{"c.c": workload.CallsiteFanout(m).Source}, checkers.Free, core.DefaultOptions()}
	off = on
	off.opts.FunctionCache = false
	return on, off
}

func e2(w io.Writer) {
	fmt.Fprintln(w, "callsites  callee-analyses(cache ON)  callee-analyses(cache OFF)  fn-cache-hits")
	for _, m := range e2Callsites {
		on, off := e2Runs(m)
		enOn, _ := on.engine()
		enOff, _ := off.engine()
		fmt.Fprintf(w, "%9d  %25d  %26d  %13d\n",
			m, enOn.Analyses("helper"), enOff.Analyses("helper"), enOn.Stats.FuncCacheHits)
	}
}

// E3Counts is what E3 counts with false path pruning (FPP) on, and the
// false positives left when it is off.
type E3Counts struct {
	Seeded         int // functions seeded with a real bug
	Reports, Funcs int // reports, and the functions they fall in
	FalsePos       int // reports outside the seeded functions
	Pruned         int64
	FalsePosOff    int
}

// e3Runs are E3's population, 100 functions with a contradictory-branch
// site each, about a fifth of them seeded with a real bug, and its two
// runs, with FPP and without it.
func e3Runs() (pr workload.Program, on, off run) {
	pr = workload.ContradictoryBranches(100, 0.2, 42)
	on = run{map[string]string{"x.c": pr.Source}, checkers.Free, core.DefaultOptions()}
	off = on
	off.opts.FPP = false
	return pr, on, off
}

// E3 scores the free checker's reports over e3Runs' population against
// the seeded bugs, with FPP on and off.
func E3(w io.Writer) E3Counts {
	pr, on, off := e3Runs()
	enOn, rsOn := on.engine()
	_, rsOff := off.engine()

	seeded := map[string]bool{}
	for _, b := range pr.Bugs {
		seeded[b.Func] = true
	}
	score := func(rs *report.Set) (tp, fp int) {
		for _, r := range rs.Reports {
			if seeded[r.Func] {
				tp++
			} else {
				fp++
			}
		}
		return tp, fp
	}
	tpOn, fpOn := score(rsOn)
	tpOff, fpOff := score(rsOff)
	funcs := map[string]bool{}
	for _, r := range rsOn.Reports {
		funcs[r.Func] = true
	}
	fmt.Fprintf(w, "seeded real bugs: %d over 100 functions\n", len(pr.Bugs))
	fmt.Fprintf(w, "FPP ON : %3d true positives, %3d false positives (paths pruned: %d)\n", tpOn, fpOn, enOn.Stats.PrunedPaths)
	fmt.Fprintf(w, "FPP OFF: %3d true positives, %3d false positives\n", tpOff, fpOff)
	return E3Counts{len(seeded), rsOn.Len(), len(funcs), fpOn, enOn.Stats.PrunedPaths, fpOff}
}

// E4Counts are E4's report counts with synonyms on and off: the copy
// chain's, whose one report is a bug, and those of the paper's
// "p = q = kmalloc" example, whose one report is a false positive.
type E4Counts struct {
	ChainOn, ChainOff, NullOn, NullOff int
}

// E4 runs both examples with synonyms on and off.
func E4(w io.Writer) E4Counts {
	chain := `
void *kmalloc(unsigned long n);
void kfree(void *p);
int chain(int n) {
    int *p, *q, *r;
    p = kmalloc(n);
    kfree(p);
    q = p;
    r = q;
    return *r;
}`
	// The kmalloc NULL-check mirroring example from §8.
	nullCheck := `
void *kmalloc(unsigned long n);
int f(unsigned long n) {
    int *p, *q;
    p = q = kmalloc(n);
    if (!p)
        return 0;
    return *q;
}`
	reports := func(name, src, checker string) (on, off int) {
		r := run{map[string]string{name: src}, checker, core.DefaultOptions()}
		_, rs := r.engine()
		r.opts.Synonyms = false
		_, rsOff := r.engine()
		return rs.Len(), rsOff.Len()
	}
	var c E4Counts
	c.ChainOn, c.ChainOff = reports("syn.c", chain, checkers.Free)
	c.NullOn, c.NullOff = reports("n.c", nullCheck, checkers.Null)
	fmt.Fprintf(w, "kfree(p); q = p; r = q; use *r (synonym chain):\n")
	fmt.Fprintf(w, "  synonyms ON : %d reports (mirrored state catches the use)\n", c.ChainOn)
	fmt.Fprintf(w, "  synonyms OFF: %d reports (bug missed)\n", c.ChainOff)
	fmt.Fprintf(w, "p = q = kmalloc(...); if(!p) ...; *q (paper's §8 example):\n")
	fmt.Fprintf(w, "  synonyms ON : %d false positives (check on p clears q)\n", c.NullOn)
	fmt.Fprintf(w, "  synonyms OFF: %d false positives\n", c.NullOff)
	return c
}

func e5(w io.Writer) {
	pr := workload.LockReliability(60, 4, 30)
	p := mustProg(map[string]string{"lk.c": pr.Source})
	en := core.NewEngine(p, mustChecker(checkers.Lock), core.DefaultOptions())
	rs := en.RunContext(context.Background())

	stats := map[string]rank.RuleStat{}
	for rule, rc := range en.RuleStats {
		stats[rule] = rank.RuleStat{Rule: rule, Examples: rc.Examples, Violations: rc.Violations}
	}
	truth := map[string]bool{}
	for _, b := range pr.Bugs {
		truth[b.Func] = true
	}
	ranked := rank.Statistical(rs.Reports, stats)
	fmt.Fprintf(w, "reports: %d, seeded true bugs: %d\n", len(ranked), len(pr.Bugs))
	fmt.Fprintln(w, "rank  func                 true-bug?")
	hitsInTop := 0
	for i, r := range ranked {
		if i < 10 {
			fmt.Fprintf(w, "%4d  %-20s %v\n", i+1, r.Func, truth[r.Func])
		}
		if i < len(pr.Bugs) && truth[r.Func] {
			hitsInTop++
		}
	}
	fmt.Fprintf(w, "true bugs in top-%d: %d (paper: 'all of the real errors went to the top')\n",
		len(pr.Bugs), hitsInTop)

	// Code ranking (§9 "Ranking code"): per-function e/c under the
	// *intraprocedural* lock checker — wrapper functions (acquire-only
	// or release-only by design) sink; mostly-balanced functions with
	// a few mismatches rise.
	intra := core.DefaultOptions()
	intra.Interprocedural = false
	var codeStats []rank.CodeStat
	for _, fn := range p.All {
		enF := core.NewEngine(p, mustChecker(checkers.Lock), intra)
		enF.RunRootsContext(context.Background(), []*prog.Function{fn})
		cs := rank.CodeStat{Function: fn.Name}
		for _, rc := range enF.RuleStats {
			cs.Successes += rc.Examples
			cs.Mismatches += rc.Violations
		}
		if cs.Successes+cs.Mismatches > 0 {
			codeStats = append(codeStats, cs)
		}
	}
	rankedCode := rank.RankCode(codeStats)
	fmt.Fprintln(w, "\ncode ranking (intraprocedural lock checker):")
	show := func(cs rank.CodeStat) {
		fmt.Fprintf(w, "  %-20s e=%d c=%d z=%.2f\n", cs.Function, cs.Successes, cs.Mismatches, cs.Z())
	}
	for _, cs := range rankedCode[:min(3, len(rankedCode))] {
		show(cs)
	}
	fmt.Fprintln(w, "  ...")
	for _, cs := range rankedCode[max(0, len(rankedCode)-3):] {
		show(cs)
	}

	// Rule inference on the paired-calls population.
	pp := workload.PairedCalls(40, 3, 20, 9)
	p2 := mustProg(map[string]string{"pp.c": pp.Source})
	pairs := checkers.InferPairs(p2, func(n string) bool {
		return strings.HasPrefix(n, "res_") || strings.HasPrefix(n, "misc_")
	})
	fmt.Fprintln(w, "\ninferred must-pair rules (top 5 by z):")
	fmt.Fprint(w, checkers.FormatPairs(pairs, 5))
}

func e6(w io.Writer) {
	mk := func(line, start, conds, syn int, inter bool, chain int, class report.Class, label string) *report.Report {
		return &report.Report{
			Checker: "demo", Msg: label,
			Pos:          cc.Pos{File: "f.c", Line: line},
			Start:        cc.Pos{File: "f.c", Line: start},
			Conditionals: conds, SynonymDepth: syn,
			Interprocedural: inter, CallChain: chain, Class: class,
		}
	}
	reports := []*report.Report{
		mk(500, 10, 8, 2, true, 5, report.ClassNone, "far, conditional-heavy, synonym, interprocedural"),
		mk(12, 10, 0, 0, false, 0, report.ClassNone, "near, simple, local"),
		mk(40, 10, 1, 0, false, 0, report.ClassNone, "medium local"),
		mk(11, 10, 0, 0, false, 0, report.ClassMinor, "trivial but MINOR"),
		mk(300, 10, 4, 0, true, 2, report.ClassSecurity, "SECURITY interprocedural"),
	}
	for i, r := range rank.Generic(reports) {
		class := string(r.Class)
		if class == "" {
			class = "-"
		}
		fmt.Fprintf(w, "%d. [%s] %s (score=%d)\n", i+1, class, r.Msg, r.Score())
	}
}

func e7(w io.Writer) {
	fmt.Fprintln(w, "code size   metal cost (fixed, lines)   annotation cost @1/50 LoC (lines to write)")
	freeLines := checkers.LineCount()["free"]
	for _, loc := range []int{1000, 10000, 100000, 2000000} {
		fmt.Fprintf(w, "%9d   %25d   %40d\n", loc, freeLines, loc/50)
	}
	fmt.Fprintln(w, "(§10.2: 'For a system the size of Linux (2MLOC), this would require two spells")
	fmt.Fprintln(w, " of 40 days and 40 nights of continuous annotating for a single property!')")
}

// e8Files are E8's rows, {name, source}: the files of a generated
// 3-file driver tree, sorted, then Figure 2.
func e8Files() [][2]string {
	srcs := workload.LinuxLike(3, 20, 7)
	var rows [][2]string
	for _, n := range sortedKeys(srcs) {
		rows = append(rows, [2]string{n, srcs[n]})
	}
	return append(rows, [2]string{"fig2.c", workload.Fig2})
}

func e8(w io.Writer) {
	fmt.Fprintln(w, "workload              source-bytes  emitted-bytes  ratio (paper: 4-5x)")
	for _, f := range e8Files() {
		emitted, err := mc.EmitAST(f[0], f[1])
		if err != nil {
			panic(err)
		}
		fmt.Fprintf(w, "%-20s  %12d  %13d  %.2fx\n", f[0], len(f[1]), len(emitted),
			float64(len(emitted))/float64(len(f[1])))
	}
}

func e9(w io.Writer) {
	fmt.Fprintln(w, "checker         lines  (paper: 10-200)")
	counts := checkers.LineCount()
	for _, n := range sortedKeys(counts) {
		fmt.Fprintf(w, "%-14s  %5d\n", n, counts[n])
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func e10(w io.Writer) {
	src := `
void kfree(void *p);
int reuse_after_kill(int *p, int n) {
    kfree(p);
    p = 0;
    p = &n;
    return *p;
}
int idx_kill(int **a, int i) {
    kfree(a[i]);
    i = i + 1;
    return *a[i];
}`
	r := run{map[string]string{"k.c": src}, checkers.Free, core.DefaultOptions()}
	_, rsOn := r.engine()
	r.opts.Kills = false
	_, rsOff := r.engine()
	fmt.Fprintf(w, "kill-on-redefinition ON : %d false positives\n", rsOn.Len())
	fmt.Fprintf(w, "kill-on-redefinition OFF: %d false positives\n", rsOff.Len())
	fmt.Fprintln(w, "(§8: killing 'is the single most important technique for suppressing")
	fmt.Fprintln(w, " false positives in checkers that attach state to specific program objects')")
}

// suite is the five bundled checkers E11 and E12 run, each with the
// seeded bug kinds it finds.
var suite = []struct {
	name, src string
	kinds     []string
}{
	{"free", checkers.Free, []string{"use-after-free", "double-free"}},
	{"lock", checkers.Lock, []string{"missing-unlock"}},
	{"null", checkers.Null, []string{"null-deref"}},
	{"leak", checkers.Leak, []string{"leak"}},
	{"interrupt", checkers.Interrupt, []string{"interrupt"}},
}

// E11Row is one checker's line of E11's table.
type E11Row struct {
	Checker                            string
	Reports, TruePos, FalsePos, Missed int
}

// E11 runs the suite through one mc.Analyzer over a seeded 4-file tree
// and scores each checker's reports: a report is a true positive when
// its function holds a seeded bug of a kind the checker finds.
func E11(w io.Writer) []E11Row {
	srcs, bugs := workload.MixedTree(4, 25, 2002)
	a := mc.NewAnalyzer()
	for name, src := range srcs {
		a.AddSource(name, src)
	}
	for _, c := range suite {
		if err := a.LoadBundledChecker(c.name); err != nil {
			panic(err)
		}
	}
	res, err := a.RunContext(context.Background())
	if err != nil {
		panic(err)
	}

	rows := make([]E11Row, len(suite))
	byChecker, byKind := map[string]*E11Row{}, map[string]*E11Row{}
	for i, c := range suite {
		rows[i].Checker = c.name
		byChecker[mustChecker(c.src).Name] = &rows[i]
		for _, k := range c.kinds {
			byKind[k] = &rows[i]
		}
	}
	kind := map[string]string{} // function -> the kind of bug seeded in it
	for _, b := range bugs {
		kind[b.Func] = b.Kind
	}
	hit := map[string]bool{}
	for _, r := range res.Reports {
		rw := byChecker[r.Checker]
		rw.Reports++
		if byKind[kind[r.Func]] == rw {
			rw.TruePos++
			hit[r.Func] = true
		} else {
			rw.FalsePos++
		}
	}
	for _, b := range bugs {
		if !hit[b.Func] {
			byKind[b.Kind].Missed++
		}
	}

	fmt.Fprintf(w, "seeded tree: %d files, %d functions, %d bugs\n", len(srcs), len(res.Program.All), len(bugs))
	fmt.Fprintln(w, "checker     reports  true-pos  false-pos  missed")
	tp, fp := 0, 0
	for _, rw := range rows {
		tp += rw.TruePos
		fp += rw.FalsePos
		fmt.Fprintf(w, "%-10s  %7d  %8d  %9d  %6d\n", rw.Checker, rw.Reports, rw.TruePos, rw.FalsePos, rw.Missed)
	}
	fmt.Fprintf(w, "suite total: %d/%d seeded bugs found, %d false positives\n", tp, len(bugs), fp)
	return rows
}

func e12(w io.Writer) {
	v1, bugs := workload.MixedTree(3, 20, 99)
	analyze := func(srcs map[string]string, history []*report.Report) []*report.Report {
		p := mustProg(srcs)
		var all []*report.Report
		for _, c := range suite {
			en := core.NewEngine(p, mustChecker(c.src), core.DefaultOptions())
			all = append(all, en.RunContext(context.Background()).Reports...)
		}
		if history != nil {
			all = report.NewHistory(history).Suppress(all)
		}
		return all
	}
	first := analyze(v1, nil)
	fmt.Fprintf(w, "v1: %d reports over %d seeded bugs — triaged and recorded as the baseline\n",
		len(first), len(bugs))

	v2, newBug := workload.NextVersion(v1)
	unsuppressed := analyze(v2, nil)
	suppressed := analyze(v2, first)
	fmt.Fprintf(w, "v2 (all lines shifted + 1 new bug):\n")
	fmt.Fprintf(w, "  without history: %d reports (every known issue resurfaces)\n", len(unsuppressed))
	fmt.Fprintf(w, "  with history:    %d report(s):\n", len(suppressed))
	for _, r := range suppressed {
		fmt.Fprintf(w, "    %s (func %s)\n", r, r.Func)
	}
	if len(suppressed) == 1 && suppressed[0].Func == newBug.Func {
		fmt.Fprintln(w, "  -> exactly the new regression; line-number drift did not resurrect old reports")
	}
}
