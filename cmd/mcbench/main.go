// Command mcbench regenerates every figure and table of the paper (as
// indexed in DESIGN.md §4) plus the quantitative claims from the
// prose. Each experiment prints the series the paper reports so
// EXPERIMENTS.md can record paper-vs-measured.
//
// Usage:
//
//	mcbench -exp all
//	mcbench -exp f4,e1,e5
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/cc"
	"repro/internal/checkers"
	"repro/internal/core"
	"repro/internal/metal"
	"repro/internal/pattern"
	"repro/internal/prog"
	"repro/internal/rank"
	"repro/internal/report"
	"repro/internal/workload"
	"repro/mc"
)

var experiments = []struct {
	id   string
	desc string
	run  func()
}{
	{"f1", "Figure 1: the free checker, parsed and summarized", expF1},
	{"f2", "Figure 2 + §2.2: the 12-step free-checker trace", expF2},
	{"f3", "Figure 3: the lock checker's three error kinds", expF3},
	{"f4", "Figure 4: DFS caching — exponential vs linear", expF4},
	{"f5", "Figure 5: supergraph block/suffix summaries", expF5},
	{"f6", "Figure 6: relax / suffix-summary fixpoint", expF6},
	{"t1", "Table 1: hole types match/reject matrix", expT1},
	{"t2", "Table 2: refine/restore rules", expT2},
	{"e1", "§5.2: linear scaling in tracked instances", expE1},
	{"e2", "§6.2: function-summary memoization", expE2},
	{"e3", "§8: false path pruning vs false positives", expE3},
	{"e4", "§8: synonyms — coverage and FP suppression", expE4},
	{"e5", "§9: statistical z-ranking of rules", expE5},
	{"e6", "§9: generic ranking criteria", expE6},
	{"e7", "§10.2: annotation overhead vs checker cost", expE7},
	{"e8", "§6: emitted-AST size ratio (pass 1)", expE8},
	{"e9", "§1: checkers are 10-200 lines", expE9},
	{"e10", "§8: kill-on-redefinition vs false positives", expE10},
	{"e11", "end-to-end: full checker suite precision/recall on a seeded tree", expE11},
	{"e12", "§8 history: cross-version suppression isolates new bugs", expE12},
}

func main() {
	exp := flag.String("exp", "all", "comma-separated experiment ids, or 'all'")
	flag.Parse()

	known := map[string]bool{}
	var ids []string
	for _, e := range experiments {
		known[e.id] = true
		ids = append(ids, e.id)
	}
	// Every requested id is checked before anything runs: one unknown
	// id fails the invocation instead of being skipped.
	want := known
	if *exp != "all" {
		want = map[string]bool{}
		for _, id := range strings.Split(*exp, ",") {
			id = strings.TrimSpace(id)
			if !known[id] {
				fmt.Fprintf(os.Stderr, "mcbench: no such experiment %q (ids: %s, or all)\n", id, strings.Join(ids, ", "))
				os.Exit(2)
			}
			want[id] = true
		}
	}
	for _, e := range experiments {
		if !want[e.id] {
			continue
		}
		fmt.Printf("==== %s: %s ====\n", strings.ToUpper(e.id), e.desc)
		e.run()
		fmt.Println()
	}
}

// fig2Src is the paper's Figure 2 with its line numbering.
const fig2Src = `int contrived(int *p, int *w, int x) {
    int *q;

    if(x)
    {
        kfree(w);
        q = p;
        p = 0;
    }
    if(!x)
        return *w;
    return *q;
}
int contrived_caller(int *w, int x, int *p) {
    kfree(p);
    contrived(p, w, x);
    return *w;
}
void kfree(void *p);
`

// fig1Checker is the verbatim Figure 1 checker (the bundled "free"
// checker adds example-counting at end of path, which perturbs the
// exit-block summaries Figure 5 shows).
const fig1Checker = `
sm free_checker;
state decl any_pointer v;

start:
    { kfree(v) } ==> v.freed
;

v.freed:
    { *v }       ==> v.stop, { err("using %s after free!", mc_identifier(v)); }
  | { kfree(v) } ==> v.stop, { err("double free of %s!", mc_identifier(v)); }
;
`

func runFig1(srcs map[string]string, opts core.Options) (*core.Engine, *report.Set) {
	c, err := metal.Parse(fig1Checker)
	if err != nil {
		panic(err)
	}
	en := core.NewEngine(mustProg(srcs), c, opts)
	return en, en.RunContext(context.Background())
}

func mustProg(srcs map[string]string) *prog.Program {
	p, err := prog.BuildSource(srcs)
	if err != nil {
		panic(err)
	}
	return p
}

func mustChecker(name string) *metal.Checker {
	c, err := checkers.Parse(name)
	if err != nil {
		panic(err)
	}
	return c
}

func runEngine(srcs map[string]string, checkerName string, opts core.Options) (*core.Engine, *report.Set) {
	en := core.NewEngine(mustProg(srcs), mustChecker(checkerName), opts)
	return en, en.RunContext(context.Background())
}

func expF1() {
	c := mustChecker("free")
	fmt.Printf("checker %s: %d transitions, states: global %v, v %v\n",
		c.Name, len(c.Transitions), c.GlobalStates, c.VarStates["v"])
	fmt.Println(strings.TrimSpace(checkers.Free))
}

func expF2() {
	en, rs := runFig1(map[string]string{"fig2.c": fig2Src}, core.DefaultOptions())
	fmt.Println("reports (paper: lines 12 and 17, nothing else):")
	for _, r := range rs.Reports {
		fmt.Printf("  %s\n", r)
		for _, step := range r.Trace {
			fmt.Printf("      %s\n", step)
		}
	}
	fmt.Printf("paths pruned by FPP (paper trace steps 8/10): %d\n", en.Stats.PrunedPaths)
}

func expF3() {
	src := `
void lock(int *l); void unlock(int *l); int trylock(int *l);
int m1, m2, m3;
void double_acquire(void) { lock(&m1); lock(&m1); }
void release_unacquired(void) { unlock(&m2); }
void never_released(int x) { lock(&m3); if (x) unlock(&m3); }
`
	_, rs := runEngine(map[string]string{"locks.c": src}, "lock", core.DefaultOptions())
	for _, r := range rs.Reports {
		fmt.Printf("  %s\n", r)
	}
}

func expF4() {
	fmt.Println("n-diamonds  paths(2^n)  blocks(cache ON)  blocks(cache OFF)  time ON      time OFF")
	for _, n := range []int{4, 8, 12, 16} {
		pr := workload.DiamondChain(n)
		srcs := map[string]string{"d.c": pr.Source}

		on := core.DefaultOptions()
		on.FPP = false
		t0 := time.Now()
		enOn, _ := runEngine(srcs, "free", on)
		dOn := time.Since(t0)

		off := on
		off.BlockCache = false
		off.Budgets.FuncBlocks = 5_000_000
		t1 := time.Now()
		enOff, _ := runEngine(srcs, "free", off)
		dOff := time.Since(t1)

		fmt.Printf("%10d  %10d  %16d  %17d  %-10v  %v\n",
			n, 1<<uint(n), enOn.Stats.Blocks, enOff.Stats.Blocks, dOn.Round(time.Microsecond), dOff.Round(time.Microsecond))
	}
}

func expF5() {
	en, _ := runFig1(map[string]string{"fig2.c": fig2Src}, core.DefaultOptions())
	for _, fn := range []string{"contrived_caller", "contrived"} {
		fmt.Printf("--- %s ---\n", fn)
		fmt.Print(en.SupergraphString(fn))
	}
}

func expF6() {
	en, _ := runFig1(map[string]string{"fig2.c": fig2Src}, core.DefaultOptions())
	entry := en.Prog.Lookup("contrived").Graph.Entry
	fmt.Println("function summary of contrived (= entry block suffix summary):")
	fmt.Printf("  %s\n", en.SuffixSummaryString("contrived", entry))
	fmt.Println("properties: no stop-ending edges, no local-q edges (checked by the test suite)")
}

func expT1() {
	src := `
struct point { int x; };
void sink(void);
int f(int i, float fl, int *p, char *s, struct point pt) {
    sink();
    return 0;
}`
	f, err := cc.ParseFile("t1.c", src)
	if err != nil {
		panic(err)
	}
	env := cc.NewTypeEnv(f)
	fn := f.Funcs()[0]
	tm := env.CheckFunc(fn)

	exprs := map[string]cc.Expr{}
	for _, name := range []string{"i", "fl", "p", "s", "pt"} {
		exprs[name], _ = cc.ParseExprString(name)
	}
	// Give the parsed idents their declared types by matching names.
	types := map[string]*cc.Type{}
	for _, p := range fn.Params {
		types[p.Name] = p.Type
	}
	callExpr, _ := cc.ParseExprString("sink()")

	metas := []pattern.MetaKind{pattern.MetaAnyExpr, pattern.MetaAnyScalar, pattern.MetaAnyPtr, pattern.MetaAnyFnCall}
	fmt.Printf("%-12s", "hole type")
	names := []string{"int i", "float fl", "int *p", "char *s", "struct pt", "sink()"}
	for _, n := range names {
		fmt.Printf("  %-10s", n)
	}
	fmt.Println()
	targets := []cc.Expr{exprs["i"], exprs["fl"], exprs["p"], exprs["s"], exprs["pt"], callExpr}
	fakeTM := cc.TypeMap{}
	for name, e := range exprs {
		fakeTM[e] = types[name]
	}
	fakeTM[callExpr] = cc.TypeVoidV
	_ = tm
	for _, m := range metas {
		fmt.Printf("%-12s", string(m))
		for _, tgt := range targets {
			h := &cc.HoleExpr{Name: "h", Meta: string(m)}
			ctx := &pattern.Ctx{Point: tgt, Types: fakeTM, Callouts: pattern.Builtins()}
			b, _ := pattern.CompileBase("h", map[string]*pattern.Hole{"h": {Name: "h", Meta: m}})
			_, ok := b.Match(ctx, pattern.Bindings{})
			_ = h
			mark := "-"
			if ok {
				mark = "match"
			}
			fmt.Printf("  %-10s", mark)
		}
		fmt.Println()
	}
	// Concrete C type hole: int.
	fmt.Printf("%-12s", "int")
	for _, tgt := range targets {
		b, _ := pattern.CompileBase("h", map[string]*pattern.Hole{"h": {Name: "h", CType: cc.TypeIntV}})
		ctx := &pattern.Ctx{Point: tgt, Types: fakeTM, Callouts: pattern.Builtins()}
		_, ok := b.Match(ctx, pattern.Bindings{})
		mark := "-"
		if ok {
			mark = "match"
		}
		fmt.Printf("  %-10s", mark)
	}
	fmt.Println()
	// any_arguments binds whole argument lists inside calls.
	argHoles := map[string]*pattern.Hole{"args": {Name: "args", Meta: pattern.MetaAnyArgs}}
	ap, _ := pattern.CompileBase("g(args)", argHoles)
	callTgt, _ := cc.ParseExprString("g(1, x, s)")
	actx := &pattern.Ctx{Point: callTgt, Types: fakeTM, Callouts: pattern.Builtins()}
	if bnd, ok := ap.Match(actx, pattern.Bindings{}); ok {
		args, _ := bnd.Get("args")
		fmt.Printf("%-12s  { g(args) } on g(1, x, s) binds args = [%s]\n", "any_arguments", args)
	}
}

func expT2() {
	rows := []struct {
		name string
		src  string
		want string
	}{
		{"xa/xf state(xa)", `
void kfree(void *p);
void callee(int *xf) { kfree(xf); }
int caller(int *xa) { callee(xa); return *xa; }`, "using xa after free!"},
		{"&xa/xf state(xa)", `
void kfree(void *p);
void callee(int **xf) { kfree(*xf); }
int caller(int *xa) { callee(&xa); return *xa; }`, "using xa after free!"},
		{"xa/xf state(xa.field)", `
void kfree(void *p);
struct box { int *ptr; };
void callee(struct box xf) { kfree(xf.ptr); }
int caller(struct box xa) { callee(xa); return *xa.ptr; }`, "using xa.ptr after free!"},
		{"xa/xf state(xa->field)", `
void kfree(void *p);
struct box { int *ptr; };
void callee(struct box *xf) { kfree(xf->ptr); }
int caller(struct box *xa) { callee(xa); return *xa->ptr; }`, "using xa->ptr after free!"},
		{"xa/xf state(*xa)", `
void kfree(void *p);
void callee(int **xf) { kfree(*xf); }
int caller(int **xa) { callee(xa); return **xa; }`, "using *xa after free!"},
	}
	for _, row := range rows {
		_, rs := runEngine(map[string]string{"t2.c": row.src}, "free", core.DefaultOptions())
		status := "FAIL"
		for _, r := range rs.Reports {
			if strings.Contains(r.Msg, row.want) {
				status = "ok"
			}
		}
		fmt.Printf("  %-26s -> %s (%d reports)\n", row.name, status, rs.Len())
	}
}

func expE1() {
	fmt.Println("instances  points-visited  blocks  paths  time")
	base := int64(0)
	for _, k := range []int{1, 2, 4, 8, 16, 32, 64} {
		pr := workload.InstanceScaling(k, 8)
		t0 := time.Now()
		en, _ := runEngine(map[string]string{"s.c": pr.Source}, "free", core.DefaultOptions())
		d := time.Since(t0)
		if k == 1 {
			base = en.Stats.Points
		}
		fmt.Printf("%9d  %14d  %6d  %5d  %v\n", k, en.Stats.Points, en.Stats.Blocks, en.Stats.Paths, d.Round(time.Microsecond))
		_ = base
	}
	fmt.Println("(§5.2: independence makes point visits scale linearly, not exponentially)")
}

func expE2() {
	fmt.Println("callsites  callee-analyses(cache ON)  callee-analyses(cache OFF)  fn-cache-hits")
	for _, m := range []int{4, 16, 64} {
		pr := workload.CallsiteFanout(m)
		srcs := map[string]string{"c.c": pr.Source}
		on, _ := runEngine(srcs, "free", core.DefaultOptions())
		off := core.DefaultOptions()
		off.FunctionCache = false
		enOff, _ := runEngine(srcs, "free", off)
		fmt.Printf("%9d  %25d  %26d  %13d\n",
			m, on.Analyses("helper"), enOff.Analyses("helper"), on.Stats.FuncCacheHits)
	}
}

func expE3() {
	pr := workload.ContradictoryBranches(100, 0.2, 42)
	srcs := map[string]string{"x.c": pr.Source}
	on, rsOn := runEngine(srcs, "free", core.DefaultOptions())
	off := core.DefaultOptions()
	off.FPP = false
	_, rsOff := runEngine(srcs, "free", off)

	truth := map[string]bool{}
	for _, b := range pr.Bugs {
		truth[b.Func] = true
	}
	score := func(rs *report.Set) (tp, fp int) {
		for _, r := range rs.Reports {
			if truth[r.Func] {
				tp++
			} else {
				fp++
			}
		}
		return
	}
	tpOn, fpOn := score(rsOn)
	tpOff, fpOff := score(rsOff)
	fmt.Printf("seeded real bugs: %d over 100 functions\n", len(pr.Bugs))
	fmt.Printf("FPP ON : %3d true positives, %3d false positives (paths pruned: %d)\n", tpOn, fpOn, on.Stats.PrunedPaths)
	fmt.Printf("FPP OFF: %3d true positives, %3d false positives\n", tpOff, fpOff)
}

func expE4() {
	src := `
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
	srcs := map[string]string{"syn.c": src}
	_, rsOn := runEngine(srcs, "free", core.DefaultOptions())
	off := core.DefaultOptions()
	off.Synonyms = false
	_, rsOff := runEngine(srcs, "free", off)
	fmt.Printf("kfree(p); q = p; r = q; use *r (synonym chain):\n")
	fmt.Printf("  synonyms ON : %d reports (mirrored state catches the use)\n", rsOn.Len())
	fmt.Printf("  synonyms OFF: %d reports (bug missed)\n", rsOff.Len())

	// The kmalloc NULL-check mirroring example from §8.
	nullSrc := `
void *kmalloc(unsigned long n);
int f(unsigned long n) {
    int *p, *q;
    p = q = kmalloc(n);
    if (!p)
        return 0;
    return *q;
}`
	_, nullOn := runEngine(map[string]string{"n.c": nullSrc}, "null", core.DefaultOptions())
	offN := core.DefaultOptions()
	offN.Synonyms = false
	_, nullOff := runEngine(map[string]string{"n.c": nullSrc}, "null", offN)
	fmt.Printf("p = q = kmalloc(...); if(!p) ...; *q (paper's §8 example):\n")
	fmt.Printf("  synonyms ON : %d false positives (check on p clears q)\n", nullOn.Len())
	fmt.Printf("  synonyms OFF: %d false positives\n", nullOff.Len())
}

func expE5() {
	pr := workload.LockReliability(60, 4, 30)
	p := mustProg(map[string]string{"lk.c": pr.Source})
	en := core.NewEngine(p, mustChecker("lock"), core.DefaultOptions())
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
	fmt.Printf("reports: %d, seeded true bugs: %d\n", len(ranked), len(pr.Bugs))
	fmt.Println("rank  func                 true-bug?")
	hitsInTop := 0
	for i, r := range ranked {
		if i < 10 {
			fmt.Printf("%4d  %-20s %v\n", i+1, r.Func, truth[r.Func])
		}
		if i < len(pr.Bugs) && truth[r.Func] {
			hitsInTop++
		}
	}
	fmt.Printf("true bugs in top-%d: %d (paper: 'all of the real errors went to the top')\n",
		len(pr.Bugs), hitsInTop)

	// Code ranking (§9 "Ranking code"): per-function e/c under the
	// *intraprocedural* lock checker — wrapper functions (acquire-only
	// or release-only by design) sink; mostly-balanced functions with
	// a few mismatches rise.
	intra := core.DefaultOptions()
	intra.Interprocedural = false
	var codeStats []rank.CodeStat
	for _, fn := range p.All {
		enF := core.NewEngine(p, mustChecker("lock"), intra)
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
	fmt.Println("\ncode ranking (intraprocedural lock checker):")
	show := func(cs rank.CodeStat) {
		fmt.Printf("  %-20s e=%d c=%d z=%.2f\n", cs.Function, cs.Successes, cs.Mismatches, cs.Z())
	}
	for i, cs := range rankedCode {
		if i < 3 {
			show(cs)
		}
	}
	fmt.Println("  ...")
	for i, cs := range rankedCode {
		if i >= len(rankedCode)-3 {
			show(cs)
		}
	}

	// Rule inference on the paired-calls population.
	pp := workload.PairedCalls(40, 3, 20, 9)
	p2 := mustProg(map[string]string{"pp.c": pp.Source})
	pairs := checkers.InferPairs(p2, func(n string) bool {
		return strings.HasPrefix(n, "res_") || strings.HasPrefix(n, "misc_")
	})
	fmt.Println("\ninferred must-pair rules (top 5 by z):")
	fmt.Print(checkers.FormatPairs(pairs, 5))
}

func expE6() {
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
		fmt.Printf("%d. [%s] %s (score=%d)\n", i+1, orNone(string(r.Class)), r.Msg, r.Score())
		_ = i
	}
}

func orNone(s string) string {
	if s == "" {
		return "-"
	}
	return s
}

func expE7() {
	fmt.Println("code size   metal cost (fixed, lines)   annotation cost @1/50 LoC (lines to write)")
	freeLines := checkers.LineCount()["free"]
	for _, loc := range []int{1000, 10000, 100000, 2000000} {
		fmt.Printf("%9d   %25d   %40d\n", loc, freeLines, loc/50)
	}
	fmt.Println("(§10.2: 'For a system the size of Linux (2MLOC), this would require two spells")
	fmt.Println(" of 40 days and 40 nights of continuous annotating for a single property!')")
}

func expE8() {
	fmt.Println("workload              source-bytes  emitted-bytes  ratio (paper: 4-5x)")
	srcs := workload.LinuxLike(3, 20, 7)
	var names []string
	for n := range srcs {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		emitted, err := mc.EmitAST(n, srcs[n])
		if err != nil {
			panic(err)
		}
		fmt.Printf("%-20s  %12d  %13d  %.2fx\n", n, len(srcs[n]), len(emitted),
			float64(len(emitted))/float64(len(srcs[n])))
	}
	fmt.Printf("%-20s  %12d  %13d  %.2fx\n", "fig2.c", len(fig2Src),
		len(mustEmit("fig2.c", fig2Src)), float64(len(mustEmit("fig2.c", fig2Src)))/float64(len(fig2Src)))
}

func mustEmit(name, src string) []byte {
	data, err := mc.EmitAST(name, src)
	if err != nil {
		panic(err)
	}
	return data
}

func expE9() {
	fmt.Println("checker         lines  (paper: 10-200)")
	counts := checkers.LineCount()
	var names []string
	for n := range counts {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-14s  %5d\n", n, counts[n])
	}
}

func expE11() {
	srcs, bugs := workload.MixedTree(4, 25, 2002)
	p := mustProg(srcs)

	kindToChecker := map[string]string{
		"use-after-free": "free",
		"double-free":    "free",
		"missing-unlock": "lock",
		"null-deref":     "null",
		"leak":           "leak",
		"interrupt":      "interrupt",
	}
	buggyFuncs := map[string]string{}
	for _, b := range bugs {
		buggyFuncs[b.Func] = b.Kind
	}

	fmt.Printf("seeded tree: %d files, %d functions, %d bugs\n", 4, len(p.All), len(bugs))
	fmt.Println("checker     reports  true-pos  false-pos  missed")
	totalTP, totalFP, totalSeeded := 0, 0, 0
	for _, cname := range []string{"free", "lock", "null", "leak", "interrupt"} {
		en := core.NewEngine(p, mustChecker(cname), core.DefaultOptions())
		rs := en.RunContext(context.Background())
		tp, fp := 0, 0
		hit := map[string]bool{}
		for _, r := range rs.Reports {
			if kind, isBuggy := buggyFuncs[r.Func]; isBuggy && kindToChecker[kind] == cname {
				tp++
				hit[r.Func] = true
			} else {
				fp++
			}
		}
		seeded := 0
		for _, b := range bugs {
			if kindToChecker[b.Kind] == cname {
				seeded++
			}
		}
		missed := 0
		for _, b := range bugs {
			if kindToChecker[b.Kind] == cname && !hit[b.Func] {
				missed++
			}
		}
		totalTP += tp
		totalFP += fp
		totalSeeded += seeded
		fmt.Printf("%-10s  %7d  %8d  %9d  %6d\n", cname, rs.Len(), tp, fp, missed)
	}
	fmt.Printf("suite total: %d/%d seeded bugs found, %d false positives\n",
		totalTP, totalSeeded, totalFP)
}

func expE12() {
	v1, bugs := workload.MixedTree(3, 20, 99)
	run := func(srcs map[string]string, history []*report.Report) []*report.Report {
		p := mustProg(srcs)
		var all []*report.Report
		for _, cname := range []string{"free", "lock", "null", "leak", "interrupt"} {
			en := core.NewEngine(p, mustChecker(cname), core.DefaultOptions())
			all = append(all, en.RunContext(context.Background()).Reports...)
		}
		if history != nil {
			all = report.NewHistory(history).Suppress(all)
		}
		return all
	}
	first := run(v1, nil)
	fmt.Printf("v1: %d reports over %d seeded bugs — triaged and recorded as the baseline\n",
		len(first), len(bugs))

	v2, newBug := workload.NextVersion(v1)
	unsuppressed := run(v2, nil)
	suppressed := run(v2, first)
	fmt.Printf("v2 (all lines shifted + 1 new bug):\n")
	fmt.Printf("  without history: %d reports (every known issue resurfaces)\n", len(unsuppressed))
	fmt.Printf("  with history:    %d report(s):\n", len(suppressed))
	for _, r := range suppressed {
		fmt.Printf("    %s (func %s)\n", r, r.Func)
	}
	if len(suppressed) == 1 && suppressed[0].Func == newBug.Func {
		fmt.Println("  -> exactly the new regression; line-number drift did not resurrect old reports")
	}
}

func expE10() {
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
	srcs := map[string]string{"k.c": src}
	_, rsOn := runEngine(srcs, "free", core.DefaultOptions())
	off := core.DefaultOptions()
	off.Kills = false
	_, rsOff := runEngine(srcs, "free", off)
	fmt.Printf("kill-on-redefinition ON : %d false positives\n", rsOn.Len())
	fmt.Printf("kill-on-redefinition OFF: %d false positives\n", rsOff.Len())
	fmt.Println("(§8: killing 'is the single most important technique for suppressing")
	fmt.Println(" false positives in checkers that attach state to specific program objects')")
}
