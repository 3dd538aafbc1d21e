// Package repro's root benchmarks regenerate the paper's performance
// claims (see DESIGN.md §4 and EXPERIMENTS.md). Those of F4, E1-E3 and
// E8 time the experiments' own runs, so they sit beside them in
// internal/paper. Run with:
//
//	go test -bench=. -benchmem . ./internal/paper
package repro

import (
	"context"
	"fmt"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"repro/internal/checkers"
	"repro/internal/core"
	"repro/internal/metal"
	"repro/internal/prog"
	"repro/internal/rank"
	"repro/internal/workload"
	"repro/mc"
)

func mustProgB(b *testing.B, srcs map[string]string) *prog.Program {
	b.Helper()
	p, err := prog.BuildSource(srcs)
	if err != nil {
		b.Fatal(err)
	}
	return p
}

func mustCheckerB(b *testing.B, name string) *metal.Checker {
	b.Helper()
	s, ok := checkers.Lookup(name)
	if !ok {
		b.Fatalf("no bundled checker %s", name)
	}
	return s.Checker
}

// BenchmarkE5Ranking measures the statistical ranking pipeline over a
// realistic report population.
func BenchmarkE5Ranking(b *testing.B) {
	pr := workload.LockReliability(120, 8, 40)
	p := mustProgB(b, map[string]string{"lk.c": pr.Source})
	en := core.NewEngine(p, mustCheckerB(b, "lock"), core.DefaultOptions())
	rs := en.RunContext(context.Background())
	stats := map[string]rank.RuleStat{}
	for rule, rc := range en.RuleStats {
		stats[rule] = rank.RuleStat{Rule: rule, Examples: rc.Examples, Violations: rc.Violations}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rank.Statistical(rs.Reports, stats)
	}
}

// BenchmarkScaleLinuxLike runs the full checker suite over a generated
// multi-file driver tree — the closest stand-in for the paper's
// "scales to large programs" claim.
func BenchmarkScaleLinuxLike(b *testing.B) {
	for _, files := range []int{2, 8} {
		srcs := workload.LinuxLike(files, 25, 7)
		b.Run(fmt.Sprintf("files=%d", files), func(b *testing.B) {
			p := mustProgB(b, srcs)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, cname := range []string{"free", "lock", "null", "interrupt"} {
					en := core.NewEngine(p, mustCheckerB(b, cname), core.DefaultOptions())
					en.RunContext(context.Background())
				}
			}
		})
	}
}

// BenchmarkParse measures the C front end alone.
func BenchmarkParse(b *testing.B) {
	srcs := workload.LinuxLike(1, 50, 3)
	var src string
	for _, s := range srcs {
		src = s
		break
	}
	b.SetBytes(int64(len(src)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := prog.BuildSource(map[string]string{"x.c": src}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPatternMatch measures the matcher on a hot pattern.
func BenchmarkPatternMatch(b *testing.B) {
	pr := workload.UseAfterFree(workload.Config{Seed: 1, Functions: 40, BranchesPerFunc: 3, BugRate: 0.25})
	p := mustProgB(b, map[string]string{"w.c": pr.Source})
	c := mustCheckerB(b, "free")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		en := core.NewEngine(p, c, core.DefaultOptions())
		en.RunContext(context.Background())
	}
}

// suiteSeeds lists, per bundled checker, the concrete callee names its
// patterns hinge on; renaming them (and the sm name) yields a checker
// that is structurally identical but watches an API surface the
// workload never touches.
var suiteSeeds = []struct {
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
// then callee-renamed variants cycling over the five — the "many
// system-specific checkers, few relevant here" population of the
// paper's §10 deployment.
func checkerSuite(tb testing.TB, n int) []string {
	tb.Helper()
	var out []string
	for i := 0; i < n; i++ {
		seed := suiteSeeds[i%len(suiteSeeds)]
		s, ok := checkers.Lookup(seed.name)
		if !ok {
			tb.Fatalf("bundled checker %s missing", seed.name)
		}
		text := s.Text
		if v := i - len(suiteSeeds); v >= 0 {
			suffix := fmt.Sprintf("_v%d", v)
			for _, c := range seed.callees {
				text = regexp.MustCompile(`\b`+c+`\(`).ReplaceAllString(text, c+suffix+"(")
			}
			text = smNameRe.ReplaceAllString(text, "sm ${1}"+suffix+";")
		}
		out = append(out, text)
	}
	return out
}

// runCheckerSuite is one cold run of a checkerSuite over srcs.
func runCheckerSuite(tb testing.TB, srcs map[string]string, suite []string, jobs int) *mc.Result {
	tb.Helper()
	a := mc.NewAnalyzer()
	if err := a.Configure(mc.RunConfig{Jobs: jobs}); err != nil {
		tb.Fatal(err)
	}
	for name, src := range srcs {
		a.AddSource(name, src)
	}
	for i, cs := range suite {
		if err := a.LoadChecker(cs); err != nil {
			tb.Fatalf("suite checker %d: %v", i, err)
		}
	}
	a.MarkFunction("net_wait", "blocking")
	res, err := a.RunContext(context.Background())
	if err != nil {
		tb.Fatal(err)
	}
	return res
}

// BenchmarkCheckerSuite is the wall-clock side of compiled dispatch
// (DESIGN.md §11): 5/50/200-checker suites over the E11 tree. Read the
// ratios with -count N; `make profile` profiles it.
func BenchmarkCheckerSuite(b *testing.B) {
	srcs, _ := workload.MixedTree(4, 25, 2002)
	for _, n := range []int{5, 50, 200} {
		suite := checkerSuite(b, n)
		b.Run(fmt.Sprintf("checkers=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				runCheckerSuite(b, srcs, suite, 1)
			}
		})
	}
}

// TestCheckerSuiteVariantsTraverseNothing states §11's sublinearity
// claim as an identity: a checker whose callees never occur in the
// tree is skipped at every root, so it traverses no block, the bundled
// five do exactly the work they do alone, and the output is the
// five-checker output byte for byte at any suite size and parallelism.
func TestCheckerSuiteVariantsTraverseNothing(t *testing.T) {
	srcs, _ := workload.MixedTree(4, 25, 2002)
	var refOut string
	var refStats map[string]core.Stats
	for _, n := range []int{5, 50, 200} {
		suite := checkerSuite(t, n)
		for _, jobs := range []int{1, 8} {
			res := runCheckerSuite(t, srcs, suite, jobs)
			var sb strings.Builder
			for _, r := range res.Ranked() {
				sb.WriteString(r.Detailed())
			}
			for _, g := range res.Grouped() {
				fmt.Fprintf(&sb, "%s %.3f %d\n", g.Rule, g.Z, len(g.Reports))
			}
			if refStats == nil {
				refOut, refStats = sb.String(), res.Stats
				var blocks, points int64
				for _, st := range refStats {
					blocks += st.Blocks
					points += st.Points
				}
				t.Logf("five checkers: %d blocks, %d points, %d reports", blocks, points, len(res.Reports))
				if len(res.Reports) == 0 || blocks == 0 {
					t.Fatal("the five-checker run did nothing; the comparison is vacuous")
				}
			}
			if sb.String() != refOut {
				t.Errorf("%d checkers -j %d: output differs from the five-checker run", n, jobs)
			}
			if len(res.Stats) != n {
				t.Fatalf("%d checkers -j %d: Stats has %d entries", n, jobs, len(res.Stats))
			}
			for name, st := range res.Stats {
				if ref, bundled := refStats[name]; bundled {
					if !reflect.DeepEqual(st, ref) {
						t.Errorf("%d checkers -j %d: %s did %+v, alone %+v", n, jobs, name, st, ref)
					}
				} else if st.Blocks != 0 || st.Points != 0 || len(st.Analyses) != 0 {
					t.Errorf("%d checkers -j %d: variant %s traversed %d blocks, %d points, %d functions",
						n, jobs, name, st.Blocks, st.Points, len(st.Analyses))
				}
			}
		}
	}
}

// BenchmarkColdLeaf is the benchmark's cold-leaf op (BENCHMARK.json):
// a fresh mc.Analyzer over leaf-L's tree, workload.MixedTree(256, 25,
// 2002), with every bundled checker, net_wait marked blocking and Jobs
// 2, run with no cache. `make profile` writes pprof/coldleaf.{cpu,mem}
// from a warm-up op and six more.
func BenchmarkColdLeaf(b *testing.B) {
	srcs, _ := workload.MixedTree(256, 25, 2002)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		a := mc.NewAnalyzer()
		if err := a.Configure(mc.RunConfig{Jobs: 2}); err != nil {
			b.Fatal(err)
		}
		for name, src := range srcs {
			a.AddSource(name, src)
		}
		for _, s := range mc.BundledCheckers() {
			if err := a.LoadBundledChecker(s.Name); err != nil {
				b.Fatal(err)
			}
		}
		a.MarkFunction("net_wait", "blocking")
		res, err := a.RunContext(context.Background())
		if err != nil || res.Degraded || len(res.Failures) > 0 {
			b.Fatalf("incomplete run: %v", err)
		}
	}
}
