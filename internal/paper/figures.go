package paper

import (
	"cmp"
	"fmt"
	"io"
	"strings"
	"time"

	"repro/internal/cc"
	"repro/internal/checkers"
	"repro/internal/core"
	"repro/internal/pattern"
	"repro/internal/workload"
)

func f1(w io.Writer) {
	c := mustChecker(checkers.Free)
	fmt.Fprintf(w, "checker %s: %d transitions, states: global %v, v %v\n",
		c.Name, len(c.Transitions), c.GlobalStates, c.VarStates["v"])
	fmt.Fprintln(w, strings.TrimSpace(checkers.Free))
}

func f2(w io.Writer) {
	en, rs := fig2Run().engine()
	fmt.Fprintln(w, "reports (paper: lines 12 and 17, nothing else):")
	for _, r := range rs.Reports {
		fmt.Fprintf(w, "  %s\n", r)
		for _, step := range r.Trace {
			fmt.Fprintf(w, "      %s\n", step)
		}
	}
	fmt.Fprintf(w, "paths pruned by FPP (paper trace steps 8/10): %d\n", en.Stats.PrunedPaths)
}

func f3(w io.Writer) {
	src := `
void lock(int *l); void unlock(int *l); int trylock(int *l);
int m1, m2, m3;
void double_acquire(void) { lock(&m1); lock(&m1); }
void release_unacquired(void) { unlock(&m2); }
void never_released(int x) { lock(&m3); if (x) unlock(&m3); }
`
	_, rs := run{map[string]string{"locks.c": src}, checkers.Lock, core.DefaultOptions()}.engine()
	for _, r := range rs.Reports {
		fmt.Fprintf(w, "  %s\n", r)
	}
}

// f4Diamonds are Figure 4's rows: chains of n sequential diamonds,
// 2^n paths each.
var f4Diamonds = []int{4, 8, 12, 16}

// f4Runs are a row's two runs, with the block cache and without it;
// the uncached run's block budget is raised so that 2^16 paths finish.
func f4Runs(n int) (on, off run) {
	on = run{map[string]string{"d.c": workload.DiamondChain(n).Source}, checkers.Free, core.DefaultOptions()}
	on.opts.FPP = false
	off = on
	off.opts.BlockCache = false
	off.opts.Budgets.FuncBlocks = 5_000_000
	return on, off
}

func f4(w io.Writer) {
	fmt.Fprintln(w, "n-diamonds  paths(2^n)  blocks(cache ON)  blocks(cache OFF)  time ON      time OFF")
	for _, n := range f4Diamonds {
		on, off := f4Runs(n)
		t0 := time.Now()
		enOn, _ := on.engine()
		dOn := since(t0)
		t1 := time.Now()
		enOff, _ := off.engine()
		dOff := since(t1)
		fmt.Fprintf(w, "%10d  %10d  %16d  %17d  %-10v  %v\n",
			n, 1<<uint(n), enOn.Stats.Blocks, enOff.Stats.Blocks, dOn.Round(time.Microsecond), dOff.Round(time.Microsecond))
	}
}

func f5(w io.Writer) {
	en, _ := fig2Run().engine()
	for _, fn := range []string{"contrived_caller", "contrived"} {
		fmt.Fprintf(w, "--- %s ---\n", fn)
		fmt.Fprint(w, en.SupergraphString(fn))
	}
}

func f6(w io.Writer) {
	en, _ := fig2Run().engine()
	entry := en.Prog.Lookup("contrived").Graph.Entry
	fmt.Fprintln(w, "function summary of contrived (= entry block suffix summary):")
	fmt.Fprintf(w, "  %s\n", en.SuffixSummaryString("contrived", entry))
	fmt.Fprintln(w, "properties: no stop-ending edges, no local-q edges (checked by the test suite)")
}

func t1(w io.Writer) {
	// The targets are the body's expression statements: CheckFunc types
	// them from the declarations, as prog.Build types every body.
	src := `
struct point { int x; };
void sink(void);
int f(int i, float fl, int *p, char *s, struct point pt) {
    i; fl; p; s; pt;
    sink();
    return 0;
}`
	f, err := cc.ParseFile("t1.c", src)
	if err != nil {
		panic(err)
	}
	fn := f.Funcs()[0]
	cc.NewTypeEnv(f).CheckFunc(fn)
	var targets []cc.Expr
	for _, st := range fn.Body.List {
		if es, ok := st.(*cc.ExprStmt); ok {
			targets = append(targets, es.X)
		}
	}

	fmt.Fprintf(w, "%-12s", "hole type")
	for _, n := range []string{"int i", "float fl", "int *p", "char *s", "struct pt", "sink()"} {
		fmt.Fprintf(w, "  %-10s", n)
	}
	fmt.Fprintln(w)
	// One row per meta type, then a concrete C type hole: int.
	for _, h := range []*pattern.Hole{
		{Name: "h", Meta: pattern.MetaAnyExpr}, {Name: "h", Meta: pattern.MetaAnyScalar},
		{Name: "h", Meta: pattern.MetaAnyPtr}, {Name: "h", Meta: pattern.MetaAnyFnCall},
		{Name: "h", CType: cc.TypeIntV},
	} {
		fmt.Fprintf(w, "%-12s", cmp.Or(string(h.Meta), "int"))
		b, _ := pattern.CompileBase("h", map[string]*pattern.Hole{"h": h})
		for _, tgt := range targets {
			mark := "-"
			if _, ok := b.Match(&pattern.Ctx{Point: tgt, Callouts: pattern.Builtins()}, pattern.Bindings{}); ok {
				mark = "match"
			}
			fmt.Fprintf(w, "  %-10s", mark)
		}
		fmt.Fprintln(w)
	}
	// any_arguments binds whole argument lists inside calls.
	argHoles := map[string]*pattern.Hole{"args": {Name: "args", Meta: pattern.MetaAnyArgs}}
	ap, _ := pattern.CompileBase("g(args)", argHoles)
	callTgt, _ := cc.ParseExprString("g(1, x, s)")
	actx := &pattern.Ctx{Point: callTgt, Callouts: pattern.Builtins()}
	if bnd, ok := ap.Match(actx, pattern.Bindings{}); ok {
		args, _ := bnd.Get("args")
		fmt.Fprintf(w, "%-12s  { g(args) } on g(1, x, s) binds args = [%s]\n", "any_arguments", args)
	}
}

func t2(w io.Writer) {
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
		_, rs := run{map[string]string{"t2.c": row.src}, checkers.Free, core.DefaultOptions()}.engine()
		status := "FAIL"
		for _, r := range rs.Reports {
			if strings.Contains(r.Msg, row.want) {
				status = "ok"
			}
		}
		fmt.Fprintf(w, "  %-26s -> %s (%d reports)\n", row.name, status, rs.Len())
	}
}
