package core

import (
	"strings"
	"testing"

	"repro/internal/checkers"
	"repro/internal/metal"
	"repro/internal/prog"
	"repro/internal/workload"
)

// A streaming engine — one with a retirement schedule — must report
// exactly what the in-memory engine reports and evict every function it
// touched, for good: afterwards it renders no summary edge.
func TestStreamingRunMatchesInMemory(t *testing.T) {
	srcs, _ := workload.MixedTree(2, 10, 7)

	plainProg := rebuild(t, "stream-plain", srcs)
	plain := NewEngine(plainProg, mustTestChecker(t, "lock"), DefaultOptions())
	plainReports := reportKeys(plain.Run())
	if len(plainReports) == 0 {
		t.Fatal("in-memory run produced no reports; workload regressed")
	}

	streamProg := rebuild(t, "stream-on", srcs)
	en := NewEngine(streamProg, mustTestChecker(t, "lock"), DefaultOptions())

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
	if n := liveFuncInfos(en); n != 0 {
		t.Errorf("%d funcInfo blocks survived full retirement; want 0", n)
	}
	if len(retired) != len(streamProg.All) {
		t.Errorf("onRetire saw %d functions; want all %d", len(retired), len(streamProg.All))
	}

	// Retirement is final: inspection finds nothing to render where
	// the resident engine has edges. (ASTs stay resident in this test,
	// so what is missing is the engine's state, not the CFG.)
	rendered := false
	for _, fn := range streamProg.All {
		if strings.Contains(plain.SupergraphString(fn.Name), "->") {
			rendered = true
			if got := en.SupergraphString(fn.Name); strings.Contains(got, "->") {
				t.Errorf("retired %s still renders summary edges:\n%s", fn.Name, got)
			}
		}
	}
	if !rendered {
		t.Fatal("the resident engine rendered no summary edge; the comparison is vacuous")
	}
}

// The FPP term/fingerprint table and the fpSeen sets that hold its ids
// are owned by a function's funcInfo, so retiring the function drops
// both together: under streaming neither can outgrow the resident
// units, and inspection afterwards brings nothing back.
func TestRetirementDropsFPPState(t *testing.T) {
	srcs := workload.CallRichTree()
	fppState := func(en *Engine) (terms, fps, seen int) {
		for _, fi := range en.funcs {
			if fi == nil {
				continue
			}
			nt, nf := fi.terms.Len()
			terms, fps = terms+nt, fps+nf
			for i := range fi.blocks {
				seen += len(fi.blocks[i].fpSeen)
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
	en.SetRetire(p.PlanRetire(p.Roots), nil)
	en.Run()
	if n := liveFuncInfos(en); n != 0 {
		t.Fatalf("%d funcInfo blocks survived full retirement", n)
	}
	for _, fn := range p.All {
		en.SupergraphString(fn.Name)
	}
	if terms, fps, seen := fppState(en); terms != 0 || fps != 0 || seen != 0 {
		t.Errorf("retired functions left terms=%d fingerprints=%d fpSeen=%d behind", terms, fps, seen)
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
	if fn.Graph != nil || fn.Decl.Body != nil || fn.Sites != nil || fn.NonParamLocals != nil {
		t.Fatal("ReleaseBody left the CFG, the body or the program model behind")
	}
	if got := en.SupergraphString(fn.Name); got != "" {
		t.Errorf("released %s rendered %q; want empty", fn.Name, got)
	}
	// Export/import over a released function must be a no-op, not a
	// panic.
	sd := en.ExportSummaries([]*prog.Function{fn})
	en.ImportSummaries(sd)
}

// liveFuncInfos counts the functions the engine holds state for.
func liveFuncInfos(en *Engine) int {
	n := 0
	for _, fi := range en.funcs {
		if fi != nil {
			n++
		}
	}
	return n
}

func mustTestChecker(t *testing.T, name string) *metal.Checker {
	t.Helper()
	c, err := checkers.Parse(name)
	if err != nil {
		t.Fatal(err)
	}
	return c
}
