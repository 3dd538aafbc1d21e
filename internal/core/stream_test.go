package core

import (
	"sync"
	"testing"

	"repro/internal/checkers"
	"repro/internal/metal"
	"repro/internal/prog"
	"repro/internal/workload"
)

// mapSpill is an in-memory SummarySpill for engine-level tests (the
// real on-disk store lives in internal/spill, which depends on this
// package and so cannot be imported here).
type mapSpill struct {
	mu sync.Mutex
	m  map[string]*SummaryData
}

func newMapSpill() *mapSpill { return &mapSpill{m: map[string]*SummaryData{}} }

func (s *mapSpill) PutSummary(key string, sd *SummaryData) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.m[key] = sd
	return nil
}

func (s *mapSpill) GetSummary(key string) (*SummaryData, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sd, ok := s.m[key]
	return sd, ok
}

func spillKey(fn *prog.Function) string { return prog.FuncID(fn) }

// A streaming engine — spill store plus retirement schedule — must
// report exactly what the in-memory engine reports, evict every
// function it touched, and still render the same supergraphs afterwards
// by reloading its own spilled summaries.
func TestStreamingRunMatchesInMemory(t *testing.T) {
	srcs, _ := workload.MixedTree(2, 10, 7)

	plainProg := rebuild(t, "stream-plain", srcs)
	plain := NewEngine(plainProg, mustTestChecker(t, "lock"), DefaultOptions())
	plainReports := reportKeys(plain.Run())
	if len(plainReports) == 0 {
		t.Fatal("in-memory run produced no reports; workload regressed")
	}

	streamProg := rebuild(t, "stream-on", srcs)
	store := newMapSpill()
	en := NewEngine(streamProg, mustTestChecker(t, "lock"), DefaultOptions())
	en.SetSpill(store, spillKey)

	var retired []*prog.Function
	en.SetRetire(streamProg.PlanRetire(streamProg.Roots), func(fns []*prog.Function) {
		retired = append(retired, fns...)
	})
	got := reportKeys(en.Run())

	if !equalKeys(got, plainReports) {
		t.Errorf("streaming run changed reports:\n  plain:     %v\n  streaming: %v", plainReports, got)
	}
	if en.Spill.Evictions == 0 {
		t.Error("streaming run evicted nothing")
	}
	if len(en.funcs) != 0 {
		t.Errorf("%d funcInfo blocks survived full retirement; want 0", len(en.funcs))
	}
	if len(retired) != len(streamProg.All) {
		t.Errorf("onRetire saw %d functions; want all %d", len(retired), len(streamProg.All))
	}

	// Post-run inspection reloads spilled summaries on demand and must
	// render what the in-memory engine renders. (ASTs stay resident in
	// this test — reload needs the CFG to map block ids.)
	for _, fn := range streamProg.All {
		want := plain.SupergraphString(fn.Name)
		if got := en.SupergraphString(fn.Name); got != want {
			t.Errorf("supergraph of %s after reload:\n got:\n%s\nwant:\n%s", fn.Name, got, want)
		}
	}
	if en.Spill.Reloads == 0 {
		t.Error("inspection reloaded nothing despite prior evictions")
	}
}

// The FPP term/fingerprint table and the fpSeen sets that hold its ids
// are owned by a function's funcInfo, so retiring the function drops
// both together: under streaming neither can outgrow the resident
// units. A reload for inspection brings back the exported summaries
// only — fpSeen is traversal-internal — on a fresh, empty table.
func TestRetirementDropsFPPState(t *testing.T) {
	srcs := workload.CallRichTree()
	fppState := func(en *Engine) (terms, fps, seen int) {
		for _, fi := range en.funcs {
			nt, nf := fi.terms.Len()
			terms, fps = terms+nt, fps+nf
			for _, bi := range fi.blocks {
				seen += len(bi.fpSeen)
			}
		}
		return
	}

	resident := NewEngine(rebuild(t, "fpp-resident", srcs), mustTestChecker(t, "free"), DefaultOptions())
	resident.Run()
	if terms, fps, seen := fppState(resident); terms == 0 || fps == 0 || seen == 0 {
		t.Fatalf("resident run holds terms=%d fingerprints=%d fpSeen=%d; the tree no longer exercises FPP", terms, fps, seen)
	}

	p := rebuild(t, "fpp-stream", srcs)
	en := NewEngine(p, mustTestChecker(t, "free"), DefaultOptions())
	en.SetSpill(newMapSpill(), spillKey)
	en.SetRetire(p.PlanRetire(p.Roots), nil)
	en.Run()
	if len(en.funcs) != 0 {
		t.Fatalf("%d funcInfo blocks survived full retirement", len(en.funcs))
	}
	for _, fn := range p.All {
		en.SupergraphString(fn.Name)
	}
	if en.Spill.Reloads == 0 {
		t.Fatal("inspection reloaded nothing")
	}
	if terms, fps, seen := fppState(en); terms != 0 || fps != 0 || seen != 0 {
		t.Errorf("retired functions left terms=%d fingerprints=%d fpSeen=%d behind", terms, fps, seen)
	}
}

// Reload is gated to the engine's own evictions: an engine that never
// spilled a function must not import foreign store content, neither
// into a live traversal nor at inspection afterwards.
func TestStreamingReloadGate(t *testing.T) {
	srcs, _ := workload.MixedTree(2, 10, 7)
	p := rebuild(t, "stream-gate", srcs)

	// A store pre-poisoned for every function: if the gate leaks, the
	// fresh engine would import these (empty) summaries.
	store := newMapSpill()
	for _, fn := range p.All {
		store.m[spillKey(fn)] = &SummaryData{}
	}
	en := NewEngine(p, mustTestChecker(t, "lock"), DefaultOptions())
	en.SetSpill(store, spillKey)
	en.Run()
	if en.Spill.Reloads != 0 {
		t.Errorf("engine reloaded %d foreign summaries during a live run; the gate must block them", en.Spill.Reloads)
	}

	// Nor does an engine that never ran: there is no mode that opens
	// the gate.
	en2 := NewEngine(rebuild(t, "stream-gate2", srcs), mustTestChecker(t, "lock"), DefaultOptions())
	en2.SetSpill(store, spillKey)
	en2.SupergraphString(p.All[0].Name)
	if en2.Spill.Reloads != 0 {
		t.Errorf("an engine that spilled nothing reloaded %d summaries at inspection", en2.Spill.Reloads)
	}
}

// A released function body renders an empty supergraph instead of
// panicking — the documented inspection degradation of streaming mode.
func TestReleasedBodyRendersEmpty(t *testing.T) {
	srcs, _ := workload.MixedTree(2, 10, 7)
	p := rebuild(t, "stream-release", srcs)
	en := NewEngine(p, mustTestChecker(t, "lock"), DefaultOptions())
	en.Run()
	fn := p.All[0]
	fn.ReleaseBody()
	if fn.Graph != nil || fn.Decl.Body != nil {
		t.Fatal("ReleaseBody left the CFG or body behind")
	}
	if got := en.SupergraphString(fn.Name); got != "" {
		t.Errorf("released %s rendered %q; want empty", fn.Name, got)
	}
	// Export/import over a released function must be a no-op, not a
	// panic.
	sd := en.ExportSummaries([]*prog.Function{fn})
	en.ImportSummaries(sd)
}

func mustTestChecker(t *testing.T, name string) *metal.Checker {
	t.Helper()
	c, err := checkers.Parse(name)
	if err != nil {
		t.Fatal(err)
	}
	return c
}
