package mc

// A record is a function of its key alone (DESIGN.md §8). RunContext
// runs one engine per checker and cuts a record at each unit boundary;
// the reference below is what that replaced — one fresh engine per
// (checker, unit) — kept as a test helper only. Every record the shared
// engine cuts must be byte-equal to the reference's record for the same
// key, whatever else ran on that engine before it.

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/workload"
)

// cutSelfCoupled both writes marks (mark_fn) and reads them
// (mc_fn_marked), so it keys as a single whole-program unit.
const cutSelfCoupled = `
sm refree;
decl any_fn_call fn;
decl any_arguments args;
start:
    { fn(args) } && ${ mc_fn_marked(fn, "freed-before") } ==> start, { err("freeing routine called again"); }
  | { fn(args) } && ${ mc_is_call_to(fn, "kfree") } ==> start, { mark_fn(fn, "freed-before"); }
;`

// cutSuite is one analysis configuration under test.
type cutSuite struct {
	srcs    map[string]string
	extra   string // an extra metal checker, loaded last
	budgets Budgets
}

func (s cutSuite) analyzer(t *testing.T, jobs int, store cache.Store) *Analyzer {
	t.Helper()
	opts := DefaultOptions()
	opts.Budgets = s.budgets
	a := NewAnalyzer()
	if err := a.Configure(RunConfig{Options: &opts, Jobs: jobs, CacheStore: store}); err != nil {
		t.Fatal(err)
	}
	for name, src := range s.srcs {
		a.AddSource(name, src)
	}
	for _, c := range BundledCheckers() {
		if err := a.LoadBundledChecker(c.Name); err != nil {
			t.Fatal(err)
		}
	}
	if s.extra != "" {
		if err := a.LoadChecker(s.extra); err != nil {
			t.Fatal(err)
		}
	}
	a.MarkFunction("net_wait", "blocking")
	return a
}

func (s cutSuite) run(t *testing.T, jobs int, store cache.Store) *Result {
	t.Helper()
	res, err := s.analyzer(t, jobs, store).RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// referenceRecords runs every keyed (checker, unit) task of the suite on
// an engine of its own that retires nothing (nobody calls SetRetire on
// it), phase by phase as RunContext orders them, and
// returns each complete unit's record by key; tasks is how many keyed
// tasks there were.
func (s cutSuite) referenceRecords(t *testing.T) (recs map[string][]byte, tasks int) {
	t.Helper()
	a := s.analyzer(t, 1, nil)
	files, err := a.parseSources(&IncrStats{})
	if err != nil {
		t.Fatal(err)
	}
	tree := NewUnitTree(files)
	for _, m := range a.sortedMarks() {
		a.shared.Mark(m.name, m.key)
	}
	compiled := core.CompileDispatch(tree.Prog, a.checkers)
	recs = map[string][]byte{}
	for _, phase := range core.PlanPhases(a.checkers) {
		var phaseTasks []*unitTask
		for _, ci := range phase {
			phaseTasks = append(phaseTasks, tree.tasks(ci, a.checkers[ci], a.checkerFPs[ci], a.opts, a.shared)...)
		}
		// Live marks land in a.shared as the engines run; nothing reads
		// them before the next phase's keys are derived.
		for _, task := range phaseTasks {
			if task.key == "" {
				continue
			}
			tasks++
			en := a.liveEngine(tree.Prog, task.ci, compiled)
			runs := en.RunRootsContext(context.Background(), task.roots)
			if cut := en.CutUnit(); cut.Complete {
				if recs[task.key], err = cache.EncodeUnit(cache.NewUnitEntry(cut, runs)); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	return recs, tasks
}

// unitRecords keeps a copy of every unit record written through it.
type unitRecords struct {
	cache.Store
	mu   sync.Mutex
	recs map[string][]byte
}

func (s *unitRecords) Put(key string, data []byte) error {
	if _, err := cache.DecodeUnit(data); err == nil {
		s.mu.Lock()
		s.recs[key] = data
		s.mu.Unlock()
	}
	return s.Store.Put(key, data)
}

func TestRecordIsFunctionOfKey(t *testing.T) {
	mixed, _ := workload.MixedTree(3, 8, 11)
	// One unit that blows a 100-block budget among MixedTree's small ones.
	explosive := map[string]string{"diamonds.c": workload.DiamondChain(12).Source}
	for name, src := range mixed {
		explosive[name] = src
	}
	for _, tc := range []struct {
		name string
		cutSuite
		degrades bool
	}{
		{name: "call-rich", cutSuite: cutSuite{srcs: workload.CallRichTree()}},
		{name: "mixed", cutSuite: cutSuite{srcs: mixed}},
		{name: "self-coupled", cutSuite: cutSuite{srcs: mixed, extra: cutSelfCoupled}},
		{name: "budget-degraded", cutSuite: cutSuite{srcs: explosive, budgets: Budgets{FuncBlocks: 100}}, degrades: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want, tasks := tc.referenceRecords(t)
			if len(want) == 0 {
				t.Fatal("the reference stored no record; the comparison is vacuous")
			}
			if tc.degrades == (len(want) == tasks) {
				t.Fatalf("reference stored %d of %d keyed tasks; degrades=%v", len(want), tasks, tc.degrades)
			}
			for _, jobs := range []int{1, 8} {
				store := &unitRecords{Store: cache.NewMemStore(), recs: map[string][]byte{}}
				res := tc.run(t, jobs, store)
				label := fmt.Sprintf("-j %d", jobs)
				if res.Degraded != tc.degrades {
					t.Errorf("%s: Degraded = %v", label, res.Degraded)
				}
				if res.Spill.Evictions == 0 || res.Spill.ASTsReleased == 0 {
					t.Errorf("%s: the run retired nothing: %+v", label, res.Spill)
				}
				// A degraded unit is not stored while its neighbours
				// on the same engine are: same key set, same bytes.
				if len(store.recs) != len(want) {
					t.Errorf("%s: stored %d unit records, the reference %d", label, len(store.recs), len(want))
				}
				for key, w := range want {
					if got := store.recs[key]; !bytes.Equal(got, w) {
						t.Fatalf("%s: record %s differs from a fresh engine's:\nshared: %s\nfresh:  %s", label, key[:8], got, w)
					}
				}
			}
		})
	}
}

// onlyNewKeys fails the test on a Put of a key its store already holds:
// a key names its content, so no run has cause to write one twice.
type onlyNewKeys struct {
	cache.Store
	t *testing.T
}

func (s onlyNewKeys) Put(key string, data []byte) error {
	if cache.Has(s.Store, key) {
		s.t.Errorf("key %.12s put again", key)
	}
	return s.Store.Put(key, data)
}

// TestEditRevertNeverPoisons: units A and B fill live together on one
// engine; A is edited (B replays, A' runs alone), then reverted (both
// replay). A record that had kept anything of its engine's other units —
// a dedup key, a rule count — would surface here as a ranking that
// differs from the plain engine's. Every step writes only keys the
// store lacked.
func TestEditRevertNeverPoisons(t *testing.T) {
	base := cutSuite{srcs: workload.CallRichTree()}
	edited := cutSuite{srcs: map[string]string{}}
	for name, src := range base.srcs {
		edited.srcs[name] = strings.Replace(src, "{ drop(p); return *p; }", "{ drop(p); if (0) { } return *p; }", 1)
	}
	if edited.srcs["roots.c"] == base.srcs["roots.c"] {
		t.Fatal("the edit did not apply")
	}
	digest := func(res *Result) string {
		var sb strings.Builder
		sb.WriteString(streamDigest(res))
		for _, r := range res.ZRanked() {
			sb.WriteString(r.Detailed())
		}
		return sb.String()
	}
	for _, jobs := range []int{1, 8} {
		store := onlyNewKeys{cache.NewMemStore(), t}
		for i, step := range []struct {
			name           string
			suite          cutSuite
			live, replayed bool
		}{
			{"fill", base, true, false},
			{"edit", edited, true, true},
			{"revert", base, false, true},
		} {
			res := step.suite.run(t, jobs, store)
			if want := digest(step.suite.run(t, jobs, nil)); digest(res) != want {
				t.Errorf("-j %d step %d (%s): output differs from the plain engine's", jobs, i, step.name)
			}
			if in := res.Incr; (in.UnitsLive > 0) != step.live || (in.UnitsReplayed > 0) != step.replayed {
				t.Errorf("-j %d step %d (%s): %d units live, %d replayed", jobs, i, step.name, in.UnitsLive, in.UnitsReplayed)
			}
		}
	}
}
