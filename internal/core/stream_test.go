package core

import (
	"context"
	"fmt"
	"reflect"
	"slices"
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
	plainReports := reportKeys(plain.RunContext(context.Background()))
	if len(plainReports) == 0 {
		t.Fatal("in-memory run produced no reports; workload regressed")
	}

	streamProg := rebuild(t, "stream-on", srcs)
	en := NewEngine(streamProg, mustTestChecker(t, "lock"), DefaultOptions())

	var retired []*prog.Function
	en.SetRetire(func(u *prog.Unit) {
		retired = append(retired, u.Funcs...)
	})
	got := reportKeys(en.RunContext(context.Background()))

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
// engine's pool of evicted ones, the interner, a pooled frame or the
// engine itself — reading every slice to its capacity: a stale slot past
// the length pins what it points to all the same. The compiled dispatch
// is shared, not the engine's, and its bitsets are skipped.
type pins struct {
	// slots counts the edges in edge sets and the non-zero elements of
	// edge and fpSeen-key arrays: edge sets, fpSeen sets, the slabs
	// their first elements are carved from and the cleared arrays the
	// pool keeps alike.
	slots int
	// refs counts the instances and AST expressions those edges hold.
	refs int
	// tables counts the times a non-empty FPP table is reached, by
	// value (the engine's own) or by pointer (an environment's).
	tables int
}

func (p *pins) walk(v reflect.Value, seen map[unsafe.Pointer]bool) {
	ours := func(t reflect.Type) bool {
		for t.Kind() == reflect.Pointer || t.Kind() == reflect.Slice || t.Kind() == reflect.Array || t.Kind() == reflect.Map {
			t = t.Elem()
		}
		return t.PkgPath() == "repro/internal/core" && t != reflect.TypeOf(CompiledDispatch{}) || t == reflect.TypeOf(fpp.Env{})
	}
	// A table is read through unsafe: it is only ever reached through
	// unexported fields, whose values reflect will not hand out.
	table := func(tab *fpp.Table) {
		if terms, fps := tab.Len(); terms != 0 || fps != 0 {
			p.tables++
		}
	}
	switch v.Kind() {
	case reflect.Pointer:
		switch {
		case v.IsNil():
		case v.Type() == reflect.TypeOf((*fpp.Table)(nil)):
			table((*fpp.Table)(v.UnsafePointer()))
		case !seen[v.UnsafePointer()] && ours(v.Type()):
			seen[v.UnsafePointer()] = true
			p.walk(v.Elem(), seen)
		}
	case reflect.Struct:
		switch v.Type() {
		case reflect.TypeOf(fpp.Table{}):
			table((*fpp.Table)(unsafe.Pointer(v.UnsafeAddr())))
		default:
			if v.Type() == reflect.TypeOf(edgeSet{}) {
				// A set's edges are its length, zero-valued or not (an
				// edge between two placeholder tuples can be).
				p.slots += v.Field(0).Len()
			}
			for i := 0; i < v.NumField(); i++ {
				p.walk(v.Field(i), seen)
			}
		}
	case reflect.Map:
		for it := v.MapRange(); ours(v.Type()) && it.Next(); {
			p.walk(it.Value(), seen)
		}
	case reflect.Array:
		for i := 0; ours(v.Type()) && i < v.Len(); i++ {
			p.walk(v.Index(i), seen)
		}
	case reflect.Slice:
		full := v.Slice(0, v.Cap())
		if et := v.Type().Elem(); et == reflect.TypeOf(edge{}) || et.Kind() == reflect.Uint64 {
			for i := 0; i < full.Len(); i++ {
				el := full.Index(i)
				if el.IsZero() {
					continue
				}
				p.slots++
				if el.Kind() == reflect.Struct {
					for _, f := range []string{"fromExpr", "toExpr", "prov"} {
						if !el.FieldByName(f).IsNil() {
							p.refs++
						}
					}
				}
			}
		}
		for i := 0; ours(v.Type()) && i < full.Len(); i++ {
			p.walk(full.Index(i), seen)
		}
	}
}

func pinsOf(en *Engine) pins {
	var p pins
	p.walk(reflect.ValueOf(en), map[unsafe.Pointer]bool{})
	return p
}

// fpSeenOf renders the fpSeen sets of a unit's blocks as function,
// block, fingerprint id and tuple, so that two engines whose interners
// numbered the tuples differently can be compared, and each block's
// count of distinct fingerprints.
func fpSeenOf(en *Engine, u *prog.Unit) []string {
	var out []string
	for _, fn := range u.Funcs {
		fi := en.funcs[fn.Index]
		if fi == nil {
			continue
		}
		for b := range fi.blocks {
			if n := fi.blocks[b].fpCount; n != 0 {
				out = append(out, fmt.Sprintf("%s B%d %d fingerprints", fn.Name, b, n))
			}
			for _, key := range fi.blocks[b].fpSeen {
				out = append(out, fmt.Sprintf("%s B%d fp%d %s", fn.Name, b, key>>32, en.intern.key(tid(uint32(key)))))
			}
		}
	}
	return out
}

// pooled returns the funcInfos in the engine's pool.
func pooled(en *Engine) []*funcInfo {
	var out []*funcInfo
	for _, head := range en.pool {
		for fi := head; fi != nil; fi = fi.next {
			out = append(out, fi)
		}
	}
	return out
}

// The FPP term/fingerprint table is the engine's; the fpSeen sets that
// hold its ids are owned by a function's funcInfo, and so are the slabs
// the first edge of every edge set and the first fpSeen keys are carved
// from. Retiring a unit clears its sets and slabs into the engine's
// pool, and retiring the last live function empties the table: neither
// can outgrow the units still in flight, and inspection afterwards
// brings nothing back. Nor may the DFS's own memory keep them: a pooled
// frame's environment points at the table. And since the table is
// emptied between units and recycled memory is cleared, a unit run after
// another on one retiring engine ends as it does on a fresh engine.
func TestRetirementDropsFPPState(t *testing.T) {
	srcs := workload.CallRichTree()
	seenKeys := func(en *Engine) (seen int) {
		for _, fi := range en.funcs {
			if fi != nil {
				for i := range fi.blocks {
					seen += len(fi.blocks[i].fpSeen)
				}
			}
		}
		return seen
	}

	resident := NewEngine(rebuild(t, "fpp-resident", srcs), mustTestChecker(t, "free"), DefaultOptions())
	resident.RunContext(context.Background())
	if terms, fps := resident.terms.Len(); terms == 0 || fps == 0 || seenKeys(resident) == 0 {
		t.Fatalf("resident run holds terms=%d fingerprints=%d fpSeen=%d; the tree no longer exercises FPP", terms, fps, seenKeys(resident))
	}
	if p := pinsOf(resident); p.slots == 0 || p.refs == 0 || p.tables == 0 {
		t.Fatalf("under the resident engine the walk finds %+v; it is blind to one of them", p)
	}
	if len(resident.frames) == 0 {
		t.Fatal("the resident engine pooled no frame")
	}

	p := rebuild(t, "fpp-stream", srcs)
	en := NewEngine(p, mustTestChecker(t, "free"), DefaultOptions())
	en.SetRetire(nil)
	en.RunContext(context.Background())
	if n := liveFuncInfos(en); n != 0 || en.liveFuncs != 0 {
		t.Fatalf("%d funcInfo blocks (counted %d) survived full retirement", n, en.liveFuncs)
	}
	if len(pooled(en)) == 0 {
		t.Fatal("full retirement pooled no funcInfo")
	}
	// The pool keeps the arrays, cleared: what they held would pin every
	// retired unit's AST nodes and instances. A table that is not empty
	// holds the names of retired functions.
	if got := pinsOf(en); got != (pins{}) {
		t.Errorf("after full retirement the engine still reaches %d edge or fpSeen slots, %d instances or expressions and %d non-empty term tables",
			got.slots, got.refs, got.tables)
	}
	// The walk sees into the pool: one pooled edge set by hand is found.
	var probe *edge
	for _, fi := range pooled(en) {
		for i := range fi.blocks[:cap(fi.blocks)] {
			if s := fi.blocks[i].trans.edges; probe == nil && cap(s) > 0 {
				probe = &s[:1][0]
			}
		}
	}
	if probe == nil {
		t.Fatal("no pooled block kept an edge array")
	}
	probe.prov = &Instance{}
	if got := pinsOf(en); got.slots != 1 || got.refs != 1 {
		t.Errorf("with one pooled edge set by hand the walk finds %+v; it is blind to the pool", got)
	}
	*probe = edge{}
	for _, fn := range p.All {
		en.SupergraphString(fn.Name)
	}
	if terms, fps := en.terms.Len(); terms != 0 || fps != 0 || seenKeys(en) != 0 {
		t.Errorf("retired functions left terms=%d fingerprints=%d fpSeen=%d behind", terms, fps, seenKeys(en))
	}
	// Inspection takes a funcInfo per retired function from the pool; it
	// must bring back no edge or fpSeen key.
	if got := pinsOf(en); got.slots != 0 {
		t.Errorf("after inspection the engine reaches %d edge or fpSeen slots", got.slots)
	}

	// A cut equals a fresh engine: unit A then unit B on one retiring
	// engine leave B's summaries, fpSeen sets and the table as B alone
	// leaves them, though B's functions are carved from what A left.
	// B stays resident (the engine stops retiring after A) so that its
	// state can be read.
	mixed, _ := workload.MixedTree(2, 10, 7)
	p = rebuild(t, "fpp-cut", mixed)
	var fppUnits []*prog.Unit
	for _, u := range p.Units() {
		alone := NewEngine(p, mustTestChecker(t, "free"), DefaultOptions())
		alone.RunRootsContext(context.Background(), u.Roots)
		if len(fpSeenOf(alone, u)) > 0 {
			fppUnits = append(fppUnits, u)
		}
	}
	if len(fppUnits) < 2 {
		t.Fatalf("%d units exercise FPP; the cut comparison needs two", len(fppUnits))
	}
	a, b := fppUnits[0], fppUnits[1]
	shared := NewEngine(p, mustTestChecker(t, "free"), DefaultOptions())
	shared.SetRetire(nil)
	shared.RunRootsContext(context.Background(), a.Roots)
	if shared.Evictions == 0 || shared.liveFuncs != 0 {
		t.Fatalf("unit A did not retire: %d evictions, %d live funcInfos", shared.Evictions, shared.liveFuncs)
	}
	left := map[*funcInfo]bool{}
	for _, fi := range pooled(shared) {
		left[fi] = true
	}
	shared.rootsRun = nil
	shared.RunRootsContext(context.Background(), b.Roots)
	fresh := NewEngine(p, mustTestChecker(t, "free"), DefaultOptions())
	fresh.RunRootsContext(context.Background(), b.Roots)
	reused := 0
	for _, fn := range b.Funcs {
		if left[shared.funcs[fn.Index]] {
			reused++
		}
		if got, want := shared.SupergraphString(fn.Name), fresh.SupergraphString(fn.Name); got != want {
			t.Errorf("after unit A, %s renders\n%s\nalone it renders\n%s", fn.Name, got, want)
		}
	}
	if reused == 0 {
		t.Fatal("unit B reused none of the funcInfos unit A left; the comparison is vacuous")
	}
	got, want := fpSeenOf(shared, b), fpSeenOf(fresh, b)
	if !slices.Equal(got, want) {
		t.Errorf("after unit A, unit B's fpSeen sets are\n  %v\nalone they are\n  %v", got, want)
	}
	gt, gf := shared.terms.Len()
	wt, wf := fresh.terms.Len()
	if gt != wt || gf != wf {
		t.Errorf("after unit A the table holds %d terms and %d fingerprints; unit B alone leaves %d and %d", gt, gf, wt, wf)
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
	en.RunContext(context.Background())
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
	resident.RunContext(context.Background())
	if resident.Evictions != 0 || liveFuncInfos(resident) == 0 {
		t.Errorf("a resident engine evicted %d blocks", resident.Evictions)
	}
}
