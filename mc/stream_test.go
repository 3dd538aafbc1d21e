package mc

// Determinism property of the streaming mode (DESIGN.md §12): with
// MaxResidentMB set, every configuration — any parallelism, through a
// cold or warm incremental cache, or none — must produce output
// byte-identical to the resident in-memory run. The matrix below also
// pins the cache-key design decision that the streaming switch is not
// keyed: a store warmed by a streaming run replays under a
// non-streaming run and vice versa.

import (
	"context"
	"crypto/sha256"
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cache"
	"repro/internal/feas"
	"repro/internal/report"
	"repro/internal/workload"
)

// streamRun analyzes srcs with the full bundled suite under the given
// parallelism, MaxResidentMB (0 = streaming off), and cache store
// (nil = plain path).
func streamRun(t *testing.T, srcs map[string]string, jobs, maxMB int, store cache.Store) *Result {
	t.Helper()
	a := NewAnalyzer()
	if err := a.Configure(RunConfig{
		Jobs:          jobs,
		MaxResidentMB: maxMB,
		CacheStore:    store,
	}); err != nil {
		t.Fatal(err)
	}
	for name, src := range srcs {
		a.AddSource(name, src)
	}
	for _, s := range BundledCheckers() {
		if err := a.LoadBundledChecker(s.Name); err != nil {
			t.Fatal(err)
		}
	}
	a.MarkFunction("net_wait", "blocking")
	res, err := a.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// streamDigest hashes everything a user would diff: the ranked,
// why-traced reports plus the grouped z-statistics.
func streamDigest(res *Result) string {
	var sb strings.Builder
	for _, r := range res.Ranked() {
		sb.WriteString(r.Detailed())
	}
	for _, g := range res.Grouped() {
		fmt.Fprintf(&sb, "%s %.3f %d\n", g.Rule, g.Z, len(g.Reports))
	}
	return fmt.Sprintf("%x", sha256.Sum256([]byte(sb.String())))
}

// reportSetDigest hashes the raw emission-order report stream,
// deliberately ignoring the verdict fields and ranking: the
// feasibility pass reorders Ranked() by design (confirmed first,
// infeasible last) but must never add, remove, or reword a report.
func reportSetDigest(res *Result) string {
	var sb strings.Builder
	for _, r := range res.Reports {
		sb.WriteString(r.Detailed())
	}
	return fmt.Sprintf("%x", sha256.Sum256([]byte(sb.String())))
}

// TestVerifyDeterminismMatrix extends the streaming matrix to the
// feasibility pass (DESIGN.md §13): with the pass on or off, at any
// parallelism, through no cache, a cold cache, or a warm cache (where
// verdicts replay content-addressed), the report set must be
// byte-identical and the verdict assignment itself must be identical
// in every verify-on cell. The reference cell is also held to the
// population's ground truth — every seeded true positive confirmed,
// every reported false positive infeasible, nothing unknown — and a
// warm cell must take every verdict from the cache.
func TestVerifyDeterminismMatrix(t *testing.T) {
	pr := workload.FeasPopulation(200, 2002)
	seeded := map[string]bool{}
	for _, b := range pr.Bugs {
		seeded[b.Func] = true
	}

	run := func(jobs int, store cache.Store, verify bool) (*Result, map[string]string, feas.Stats) {
		t.Helper()
		a := NewAnalyzer()
		if err := a.Configure(RunConfig{Jobs: jobs, CacheStore: store}); err != nil {
			t.Fatal(err)
		}
		a.AddSource("feas.c", pr.Source)
		if err := a.LoadBundledChecker("free"); err != nil {
			t.Fatal(err)
		}
		res, err := a.RunContext(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		var verdicts map[string]string
		var stats feas.Stats
		if verify {
			stats = a.Verify(res, jobs)
			verdicts = map[string]string{}
			for _, r := range res.Reports {
				verdicts[r.Pos.String()+"|"+r.Msg] = r.Verdict
			}
		}
		return res, verdicts, stats
	}

	refRes, _, _ := run(1, nil, false)
	ref := reportSetDigest(refRes)
	if len(refRes.Reports) == 0 {
		t.Fatal("reference run produced no reports; workload regressed")
	}

	var verdictRef map[string]string
	for _, verify := range []bool{false, true} {
		store := cache.NewMemStore()
		cells := []struct {
			name  string
			jobs  int
			store cache.Store
		}{
			{"nocache/-j1", 1, nil},
			{"nocache/-j8", 8, nil},
			{"cold/-j1", 1, store},
			{"warm/-j1", 1, store},
			{"warm/-j8", 8, store},
		}
		for _, c := range cells {
			name := fmt.Sprintf("verify=%v/%s", verify, c.name)
			res, verdicts, stats := run(c.jobs, c.store, verify)
			if got := reportSetDigest(res); got != ref {
				t.Errorf("%s: report set differs from the verify-off reference", name)
			}
			if !verify {
				continue
			}
			if strings.HasPrefix(c.name, "warm/") && stats.CacheHits != int64(len(res.Reports)) {
				t.Errorf("%s: %d verdict cache hits for %d reports", name, stats.CacheHits, len(res.Reports))
			}
			if verdictRef == nil {
				verdictRef = verdicts
				want := map[bool]string{true: report.VerdictConfirmed, false: report.VerdictInfeasible}
				got := map[string]int{}
				for _, r := range res.Reports {
					got[r.Verdict]++
					if r.Verdict != want[seeded[r.Func]] {
						t.Errorf("%s: %s (seeded bug: %v) judged %q: %s", name, r.Func, seeded[r.Func], r.Verdict, r.VerdictWhy)
					}
				}
				if got[report.VerdictConfirmed] != len(pr.Bugs) || got[report.VerdictInfeasible] == 0 {
					t.Errorf("%s: verdicts %v over %d seeded bugs; a seeded bug went unreported or no false positive was reported", name, got, len(pr.Bugs))
				}
				continue
			}
			if len(verdicts) != len(verdictRef) {
				t.Fatalf("%s: %d verdicts, reference has %d", name, len(verdicts), len(verdictRef))
			}
			for k, v := range verdictRef {
				if verdicts[k] != v {
					t.Errorf("%s: verdict for %s = %q, reference %q", name, k, verdicts[k], v)
				}
			}
		}
	}
}

func TestStreamingDeterminismMatrix(t *testing.T) {
	srcs, _ := workload.MixedTree(3, 12, 7)

	refRes := streamRun(t, srcs, 1, 0, nil)
	ref := streamDigest(refRes)
	if len(refRes.Reports) == 0 {
		t.Fatal("reference run produced no reports; workload regressed")
	}
	if refRes.Spill != nil {
		t.Fatal("streaming off must leave Result.Spill nil")
	}

	check := func(name string, res *Result) {
		t.Helper()
		if got := streamDigest(res); got != ref {
			t.Errorf("%s: output differs from the in-memory reference", name)
		}
	}

	// Plain path, streaming on/off at each parallelism.
	for _, jobs := range []int{1, 8} {
		check(fmt.Sprintf("plain/off/-j%d", jobs), streamRun(t, srcs, jobs, 0, nil))
		res := streamRun(t, srcs, jobs, 64, nil)
		check(fmt.Sprintf("plain/on/-j%d", jobs), res)
		sp := res.Spill
		if sp == nil {
			t.Fatalf("-j%d: streaming run reported no SpillStats", jobs)
		}
		if sp.Evictions == 0 || sp.ASTsReleased == 0 {
			t.Errorf("-j%d: streaming did not engage: %+v", jobs, sp)
		}
	}

	// Cached path: cold and warm, streaming on/off, both parallelisms.
	// The warm stores are deliberately crossed — warmed streaming,
	// replayed non-streaming and vice versa — because the streaming
	// switch is not in the cache fingerprint (it is
	// semantics-preserving), so the two modes share entries.
	for _, warmMB := range []int{0, 64} {
		warmed := cache.NewMemStore()
		cold := streamRun(t, srcs, 1, warmMB, warmed)
		check(fmt.Sprintf("cached/cold/warm-mb=%d", warmMB), cold)
		if sp := cold.Spill; warmMB > 0 && (sp == nil || sp.Evictions == 0 || sp.ASTsReleased == 0) {
			t.Errorf("cached/cold: streaming did not engage: %+v", sp)
		}
		for _, runMB := range []int{0, 64} {
			for _, jobs := range []int{1, 8} {
				name := fmt.Sprintf("cached/warm-mb=%d/run-mb=%d/-j%d", warmMB, runMB, jobs)
				res := streamRun(t, srcs, jobs, runMB, warmed)
				check(name, res)
				if res.Incr == nil || res.Incr.UnitsReplayed == 0 {
					t.Errorf("%s: nothing replayed from the warm store — modes do not share cache entries", name)
				}
			}
		}
	}
}

// TestStreamingAllocatesLikePlain: a streaming run is the plain run
// plus the retirement plan and the AST releaser — it serialises
// nothing and hashes nothing. Allocation counts repeat exactly, so the
// bound is tight: the bundled suite over the call-rich tree with
// MaxResidentMB set allocates within 2 % of the resident run (1.27x
// while retirement encoded every summary for a store nothing read).
func TestStreamingAllocatesLikePlain(t *testing.T) {
	srcs := workload.CallRichTree()
	allocs := func(maxMB int) float64 {
		return testing.AllocsPerRun(3, func() { streamRun(t, srcs, 1, maxMB, nil) })
	}
	resident, streaming := allocs(0), allocs(1)
	t.Logf("allocations per suite run: resident %.0f, streaming %.0f (%.3fx)", resident, streaming, streaming/resident)
	if streaming > 1.02*resident {
		t.Errorf("streaming run allocates %.0f, resident %.0f: %.3fx, want <= 1.02x", streaming, resident, streaming/resident)
	}
}

// TestStreamingTouchesNoFile: retirement is a drop, so a streaming run
// needs no directory to put anything in. With TMPDIR pointing at a path
// that does not exist the run completes with the resident run's output
// (it failed in os.MkdirTemp while there was a spill store).
func TestStreamingTouchesNoFile(t *testing.T) {
	srcs, _ := workload.MixedTree(2, 10, 7)
	ref := streamDigest(streamRun(t, srcs, 2, 0, nil))
	t.Setenv("TMPDIR", filepath.Join(t.TempDir(), "does", "not", "exist"))
	res := streamRun(t, srcs, 2, 1, nil)
	if got := streamDigest(res); got != ref {
		t.Error("streaming run's output differs from the resident run's")
	}
	if res.Spill == nil || res.Spill.Evictions == 0 || res.Spill.ASTsReleased == 0 {
		t.Errorf("streaming did not engage: %+v", res.Spill)
	}
}
