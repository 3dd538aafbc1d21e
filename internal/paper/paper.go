// Package paper regenerates every figure and table of the paper, as
// indexed in DESIGN.md §4, plus the quantitative claims of its prose.
// cmd/mcbench prints them; TestPaperArtifactsGolden pins every line
// but the durations, and the tests of E3, E4 and E11 assert on the
// counts those experiments return.
package paper

import (
	"context"
	"io"
	"time"

	"repro/internal/core"
	"repro/internal/metal"
	"repro/internal/prog"
	"repro/internal/report"
	"repro/internal/workload"
)

// An Experiment writes one artifact's table or trace to w.
type Experiment struct {
	ID, Desc string
	Run      func(w io.Writer)
}

// Experiments is the registry, in DESIGN.md §4's order.
var Experiments = []Experiment{
	{"f1", "Figure 1: the free checker, parsed and summarized", f1},
	{"f2", "Figure 2 + §2.2: the 12-step free-checker trace", f2},
	{"f3", "Figure 3: the lock checker's three error kinds", f3},
	{"f4", "Figure 4: DFS caching — exponential vs linear", f4},
	{"f5", "Figure 5: supergraph block/suffix summaries", f5},
	{"f6", "Figure 6: relax / suffix-summary fixpoint", f6},
	{"t1", "Table 1: hole types match/reject matrix", t1},
	{"t2", "Table 2: refine/restore rules", t2},
	{"e1", "§5.2: linear scaling in tracked instances", e1},
	{"e2", "§6.2: function-summary memoization", e2},
	{"e3", "§8: false path pruning vs false positives", func(w io.Writer) { E3(w) }},
	{"e4", "§8: synonyms — coverage and FP suppression", func(w io.Writer) { E4(w) }},
	{"e5", "§9: statistical z-ranking of rules", e5},
	{"e6", "§9: generic ranking criteria", e6},
	{"e7", "§10.2: annotation overhead vs checker cost", e7},
	{"e8", "§6: emitted-AST size ratio (pass 1)", e8},
	{"e9", "§1: checkers are 10-200 lines", e9},
	{"e10", "§8: kill-on-redefinition vs false positives", e10},
	{"e11", "end-to-end: full checker suite precision/recall on a seeded tree", func(w io.Writer) { E11(w) }},
	{"e12", "§8 history: cross-version suppression isolates new bugs", e12},
}

// since is the one clock the experiments read; TestPaperArtifactsGolden
// stops it, so every duration prints as 0s there.
var since = time.Since

// A run is one engine run an experiment makes: a checker over a source
// set under options. The package's benchmarks time the same runs.
type run struct {
	srcs    map[string]string
	checker string // metal source
	opts    core.Options
}

// engine builds the program, parses the checker and runs it.
func (r run) engine() (*core.Engine, *report.Set) {
	en := core.NewEngine(mustProg(r.srcs), mustChecker(r.checker), r.opts)
	return en, en.RunContext(context.Background())
}

// fig2Run is Figure 1's checker over Figure 2.
func fig2Run() run {
	return run{map[string]string{"fig2.c": workload.Fig2}, workload.Fig1Checker, core.DefaultOptions()}
}

func mustProg(srcs map[string]string) *prog.Program {
	p, err := prog.BuildSource(srcs)
	if err != nil {
		panic(err)
	}
	return p
}

func mustChecker(src string) *metal.Checker {
	c, err := metal.Parse(src)
	if err != nil {
		panic(err)
	}
	return c
}
