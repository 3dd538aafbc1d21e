package core

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/cc"
	"repro/internal/checkers"
	"repro/internal/fpp"
	"repro/internal/metal"
	"repro/internal/prog"
	"repro/internal/report"
	"repro/internal/workload"
)

// A retiring engine must report exactly what the engine nobody called
// SetRetire on reports and evict every function it touched, for good:
// afterwards it renders no summary edge.
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
	en.SetRetire(func(u *prog.Unit) {
		retired = append(retired, u.Funcs...)
	})
	got := reportKeys(en.Run())

	if !equalKeys(got, plainReports) {
		t.Errorf("retirement changed reports:\n  resident: %v\n  retiring: %v", plainReports, got)
	}
	if en.Evictions == 0 {
		t.Error("the retiring run evicted nothing")
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

// pins counts what a value holds through the engine's own types and
// the fpp.Env a path frame keeps, wherever it hangs — a funcInfo, the
// interner, a pooled frame or the engine itself — reading every slice to
// its capacity: a stale slot past the length pins what it points to all
// the same. The compiled dispatch is shared, not the engine's, and its
// bitsets are skipped.
type pins struct {
	// slabs counts edge and fpSeen-key arrays: edge sets, fpSeen sets and
	// the slabs their first elements are carved from alike.
	slabs int
	// tables counts FPP term tables, held by value in a funcInfo or by
	// pointer from an environment.
	tables int
}

func (p *pins) walk(v reflect.Value, seen map[unsafe.Pointer]bool) {
	ours := func(t reflect.Type) bool {
		for t.Kind() == reflect.Pointer || t.Kind() == reflect.Slice || t.Kind() == reflect.Map {
			t = t.Elem()
		}
		return t.PkgPath() == "repro/internal/core" && t != reflect.TypeOf(CompiledDispatch{}) || t == reflect.TypeOf(fpp.Env{})
	}
	switch v.Kind() {
	case reflect.Pointer:
		switch {
		case v.IsNil():
		case v.Type() == reflect.TypeOf((*fpp.Table)(nil)):
			p.tables++
		case !seen[v.UnsafePointer()] && ours(v.Type()):
			seen[v.UnsafePointer()] = true
			p.walk(v.Elem(), seen)
		}
	case reflect.Struct:
		switch v.Type() {
		case reflect.TypeOf(fpp.Table{}):
			p.tables++
		default:
			for i := 0; i < v.NumField(); i++ {
				p.walk(v.Field(i), seen)
			}
		}
	case reflect.Map:
		for it := v.MapRange(); ours(v.Type()) && it.Next(); {
			p.walk(it.Value(), seen)
		}
	case reflect.Slice:
		if et := v.Type().Elem(); v.Cap() > 0 && (et == reflect.TypeOf(edge{}) || et.Kind() == reflect.Uint64) {
			p.slabs++
		}
		for i, full := 0, v.Slice(0, v.Cap()); ours(v.Type()) && i < full.Len(); i++ {
			p.walk(full.Index(i), seen)
		}
	}
}

func pinsOf(en *Engine) pins {
	var p pins
	p.walk(reflect.ValueOf(en), map[unsafe.Pointer]bool{})
	return p
}

// The FPP term/fingerprint table and the fpSeen sets that hold its ids
// are owned by a function's funcInfo, and so are the slabs the first
// edge of every edge set and the first fpSeen key are carved from:
// retiring the function drops them all together. None can outgrow the
// units still in flight, and inspection afterwards brings nothing back.
// Nor may the DFS's own memory keep them: a pooled frame's environment
// points at the table of the last function it ran in.
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
	if p := pinsOf(resident); p.slabs == 0 || p.tables == 0 {
		t.Fatalf("under the resident engine the walk finds %+v; it is blind to one of them", p)
	}
	if len(resident.frames) == 0 {
		t.Fatal("the resident engine pooled no frame")
	}

	p := rebuild(t, "fpp-stream", srcs)
	en := NewEngine(p, mustTestChecker(t, "free"), DefaultOptions())
	en.SetRetire(nil)
	en.Run()
	if n := liveFuncInfos(en); n != 0 {
		t.Fatalf("%d funcInfo blocks survived full retirement", n)
	}
	// The slabs die with the funcInfo: hung off the interner or the
	// engine they would pin every retired unit's AST nodes and instances.
	// A table still reachable pins its whole funcInfo (an environment's
	// table is &funcInfo.terms).
	if got := pinsOf(en); got != (pins{}) {
		t.Errorf("after full retirement the engine still reaches %d edge or fpSeen arrays and %d term tables",
			got.slabs, got.tables)
	}
	for _, fn := range p.All {
		en.SupergraphString(fn.Name)
	}
	if terms, fps, seen := fppState(en); terms != 0 || fps != 0 || seen != 0 {
		t.Errorf("retired functions left terms=%d fingerprints=%d fpSeen=%d behind", terms, fps, seen)
	}
	// Inspection rebuilds a funcInfo per retired function, and with it an
	// empty term table; it must bring back no edge or fpSeen array.
	if got := pinsOf(en); got.slabs != 0 {
		t.Errorf("after inspection the engine reaches %d edge or fpSeen arrays", got.slabs)
	}
}

// A released function body renders an empty supergraph instead of
// panicking, and the release writes nothing through the declaration it
// was built from: the caller of AddAST still owns that.
func TestReleasedBodyRendersEmpty(t *testing.T) {
	srcs, _ := workload.MixedTree(2, 10, 7)
	files, err := cc.ParseFiles(srcs, 1)
	if err != nil {
		t.Fatal(err)
	}
	p := prog.Build(files...)
	en := NewEngine(p, mustTestChecker(t, "lock"), DefaultOptions())
	en.Run()
	fn := p.All[0]
	decl, id := files[0].Funcs()[0], prog.FuncID(fn)
	if decl.Name != fn.Name || decl.Body == nil {
		t.Fatalf("%s is not the declaration %s was built from", decl.Name, fn.Name)
	}
	fn.ReleaseBody()
	if fn.Graph != nil || fn.Decl.Body != nil || fn.Sites != nil || fn.NonParamLocals != nil {
		t.Fatal("ReleaseBody left the CFG, the body or the program model behind")
	}
	if decl.Body == nil {
		t.Fatal("ReleaseBody wrote through the declaration it was handed")
	}
	if prog.FuncID(fn) != id || len(fn.Decl.Params) != len(decl.Params) {
		t.Fatal("ReleaseBody lost the declaration shell")
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

// retireSrc has two units: A = {a1, a2, a3, a_leaf} (three roots sharing
// a callee) and B = {b1} (a singleton).
const retireSrc = `
void kfree(void *p);
int a_leaf(int *p, int f) { if (f) kfree(p); return 0; }
int a1(int *p) { kfree(p); a_leaf(p, 1); return *p; }
int a2(int *p) { a_leaf(p, 0); return *p; }
int a3(int *p, int n) { a_leaf(p, n); return *p; }
int b1(int *q) { kfree(q); return *q; }
`

// retirement is one entry of a retiring engine's log: which unit went
// after how many roots.
type retirement struct {
	unit  *prog.Unit
	after int
}

// retireRun runs the roots one at a time on a resident engine and on a
// retiring one, and returns both with the retiring engine's retirement
// log.
func retireRun(t *testing.T, roots func(*prog.Program) []*prog.Function) (ref, en *Engine, order []*prog.Function, log []retirement) {
	t.Helper()
	refProg := rebuild(t, "retire-ref", map[string]string{"r.c": retireSrc})
	ref = NewEngine(refProg, mustTestChecker(t, "free"), DefaultOptions())
	for _, r := range roots(refProg) {
		ref.RunRootsContext(context.Background(), []*prog.Function{r})
	}
	p := rebuild(t, "retire", map[string]string{"r.c": retireSrc})
	en = NewEngine(p, mustTestChecker(t, "free"), DefaultOptions())
	ran := 0
	en.SetRetire(func(u *prog.Unit) { log = append(log, retirement{u, ran}) })
	order = roots(p)
	for _, r := range order {
		ran++
		en.RunRootsContext(context.Background(), []*prog.Function{r})
	}
	if got, want := reportStream(en.Reports), reportStream(ref.Reports); !equalKeys(got, want) {
		t.Errorf("retirement changed the report stream:\n  resident: %v\n  retiring: %v", want, got)
	}
	return ref, en, order, log
}

// reportStream lists a set's reports in emission order.
func reportStream(rs *report.Set) []string {
	var out []string
	for _, r := range rs.Reports {
		out = append(out, fmt.Sprintf("%s|%s|%s", r.Pos, r.Checker, r.Msg))
	}
	return out
}

func namedRoots(names ...string) func(*prog.Program) []*prog.Function {
	return func(p *prog.Program) []*prog.Function {
		out := make([]*prog.Function, len(names))
		for i, n := range names {
			out[i] = p.Lookup(n)
		}
		return out
	}
}

// A unit retires exactly once, after its LAST root in whatever order the
// roots arrive — the invariant eviction safety rests on (no call edge
// crosses a unit, so nothing after that root can revisit it).
func TestRetireLastRootPerUnit(t *testing.T) {
	var perms [][]string
	var permute func(done, rest []string)
	permute = func(done, rest []string) {
		if len(rest) == 0 {
			perms = append(perms, append([]string(nil), done...))
		}
		for i := range rest {
			next := append(append([]string(nil), rest[:i]...), rest[i+1:]...)
			permute(append(done, rest[i]), next)
		}
	}
	permute(nil, []string{"a1", "a2", "a3", "b1"})
	if len(perms) != 24 {
		t.Fatalf("%d permutations", len(perms))
	}
	for _, perm := range perms {
		ref, en, order, log := retireRun(t, namedRoots(perm...))
		if len(ref.Reports.Reports) == 0 {
			t.Fatal("the resident run reported nothing; the program regressed")
		}
		lastOf := map[*prog.Unit]int{}
		for i, r := range order {
			lastOf[r.Unit] = i + 1
		}
		if len(lastOf) != 2 || len(log) != 2 {
			t.Fatalf("%v: %d units, %d retirements; want 2 and 2", perm, len(lastOf), len(log))
		}
		for _, ret := range log {
			if ret.after != lastOf[ret.unit] {
				t.Errorf("%v: unit %d retired after %d roots; its last root is number %d", perm, ret.unit.Index, ret.after, lastOf[ret.unit])
			}
			delete(lastOf, ret.unit)
		}
		if len(lastOf) != 0 {
			t.Errorf("%v: one unit retired twice, the other never", perm)
		}
		if n := liveFuncInfos(en); n != 0 {
			t.Errorf("%v: %d funcInfo blocks survived full retirement", perm, n)
		}
	}
}

// Withholding one root of a unit means the unit never retires; a unit
// whose every root ran still does.
func TestRetireRootSubset(t *testing.T) {
	_, en, order, log := retireRun(t, namedRoots("a1", "b1", "a3"))
	if len(log) != 1 || log[0].unit != order[1].Unit || log[0].after != 2 {
		t.Fatalf("retirements %+v; want only b1's unit, after the second root", log)
	}
	for _, fn := range order[0].Unit.Funcs {
		if fn.Name != "a2" && en.funcs[fn.Index] == nil {
			t.Errorf("%s was evicted although a2 never ran", fn.Name)
		}
	}
}

// No roots, nothing retired; and an engine nobody called SetRetire on
// never retires at all.
func TestRetireEmpty(t *testing.T) {
	_, en, _, log := retireRun(t, namedRoots())
	if len(log) != 0 || en.Evictions != 0 {
		t.Errorf("an engine that ran no root retired %d units, evicted %d blocks", len(log), en.Evictions)
	}
	p := rebuild(t, "retire-resident", map[string]string{"r.c": retireSrc})
	resident := NewEngine(p, mustTestChecker(t, "free"), DefaultOptions())
	resident.Run()
	if resident.Evictions != 0 || liveFuncInfos(resident) == 0 {
		t.Errorf("a resident engine evicted %d blocks", resident.Evictions)
	}
}
