package core

import (
	"reflect"
	"strings"
	"testing"
	"unsafe"

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

// slabArrays counts the edge and fpSeen-key arrays reachable from v
// through the engine's own types — edge sets, fpSeen sets and the slabs
// their first elements are carved from alike — wherever they hang: a
// funcInfo, the interner or the engine itself. The compiled dispatch is
// shared, not the engine's, and its bitsets are skipped.
func slabArrays(v reflect.Value, seen map[unsafe.Pointer]bool) int {
	ours := func(t reflect.Type) bool {
		for t.Kind() == reflect.Pointer || t.Kind() == reflect.Slice || t.Kind() == reflect.Map {
			t = t.Elem()
		}
		return t.PkgPath() == "repro/internal/core" && t != reflect.TypeOf(CompiledDispatch{})
	}
	n := 0
	switch v.Kind() {
	case reflect.Pointer:
		if !v.IsNil() && !seen[v.UnsafePointer()] && ours(v.Type()) {
			seen[v.UnsafePointer()] = true
			n += slabArrays(v.Elem(), seen)
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			n += slabArrays(v.Field(i), seen)
		}
	case reflect.Map:
		for it := v.MapRange(); ours(v.Type()) && it.Next(); {
			n += slabArrays(it.Value(), seen)
		}
	case reflect.Slice:
		if et := v.Type().Elem(); v.Cap() > 0 && (et == reflect.TypeOf(edge{}) || et.Kind() == reflect.Uint64) {
			n++
		}
		for i := 0; ours(v.Type()) && i < v.Len(); i++ {
			n += slabArrays(v.Index(i), seen)
		}
	}
	return n
}

// The FPP term/fingerprint table and the fpSeen sets that hold its ids
// are owned by a function's funcInfo, and so are the slabs the first
// edge of every edge set and the first fpSeen key are carved from:
// retiring the function drops them all together. Under streaming none
// can outgrow the resident units, and inspection afterwards brings
// nothing back.
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
	if n := slabArrays(reflect.ValueOf(resident), map[unsafe.Pointer]bool{}); n == 0 {
		t.Fatal("no edge or fpSeen array found under the resident engine; the walk is blind")
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
	// The slabs die with the funcInfo: hung off the interner or the
	// engine they would pin every retired unit's AST nodes and instances.
	if n := slabArrays(reflect.ValueOf(en), map[unsafe.Pointer]bool{}); n != 0 {
		t.Errorf("%d edge or fpSeen arrays are still reachable from the engine after full retirement", n)
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
