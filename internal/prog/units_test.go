package prog

import (
	"sort"
	"testing"

	"repro/internal/workload"
)

// Two independent components: {a -> b -> c} and {x <-> y (cycle), z -> y}.
const unitsSrc = `
void b(void);
void c(void);
void a(void) { b(); }
void b(void) { c(); }
void c(void) { }

void y(void);
void x(void) { y(); }
void y(void) { x(); }
void z(void) { y(); }
`

func buildUnits(t *testing.T) *Program {
	t.Helper()
	p, err := BuildSource(map[string]string{"u.c": unitsSrc})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestUnitsPartition(t *testing.T) {
	p := buildUnits(t)
	units := p.Units()
	if len(units) != 2 {
		t.Fatalf("got %d units, want 2", len(units))
	}
	// Every function appears in exactly one unit.
	seen := map[*Function]int{}
	for _, u := range units {
		for _, fn := range u.Funcs {
			seen[fn]++
		}
	}
	if len(seen) != len(p.All) {
		t.Errorf("units cover %d funcs, program has %d", len(seen), len(p.All))
	}
	for fn, n := range seen {
		if n != 1 {
			t.Errorf("%s appears in %d units", fn.Name, n)
		}
	}
	// Concatenating unit roots in unit order reproduces Program.Roots.
	var cat []*Function
	last := -1
	for _, u := range units {
		if u.FirstRoot <= last {
			t.Errorf("units out of order: FirstRoot %d after %d", u.FirstRoot, last)
		}
		last = u.FirstRoot
		cat = append(cat, u.Roots...)
	}
	if len(cat) != len(p.Roots) {
		t.Fatalf("unit roots total %d, program has %d", len(cat), len(p.Roots))
	}
	for i := range cat {
		if cat[i] != p.Roots[i] {
			t.Errorf("root %d: unit order gives %s, program has %s", i, cat[i].Name, p.Roots[i].Name)
		}
	}
}

func TestDirtyClosure(t *testing.T) {
	p := buildUnits(t)
	name := func(s string) *Function { return p.Lookup(s) }

	// Editing c dirties c, b, a — not the x/y/z component.
	dirty := p.DirtyClosure([]*Function{name("c")})
	for _, want := range []string{"a", "b", "c"} {
		if !dirty[name(want)] {
			t.Errorf("edit c: %s not dirty", want)
		}
	}
	for _, not := range []string{"x", "y", "z"} {
		if dirty[name(not)] {
			t.Errorf("edit c: %s wrongly dirty", not)
		}
	}

	// Editing a leaf root dirties only itself.
	dirty = p.DirtyClosure([]*Function{name("a")})
	if len(dirty) != 1 || !dirty[name("a")] {
		t.Errorf("edit a: dirty set wrong: %v", dirty)
	}

	// Cycles terminate and pull in callers of the cycle.
	dirty = p.DirtyClosure([]*Function{name("x")})
	for _, want := range []string{"x", "y", "z"} {
		if !dirty[name(want)] {
			t.Errorf("edit x: %s not dirty", want)
		}
	}
	if len(dirty) != 3 {
		t.Errorf("edit x: %d dirty, want 3", len(dirty))
	}
}

func TestFuncIDDisambiguatesStatics(t *testing.T) {
	p, err := BuildSource(map[string]string{
		"one.c": "static void helper(void) { }\nvoid r1(void) { helper(); }",
		"two.c": "static void helper(void) { }\nvoid r2(void) { helper(); }",
	})
	if err != nil {
		t.Fatal(err)
	}
	ids := map[string]bool{}
	for _, fn := range p.All {
		id := FuncID(fn)
		if ids[id] {
			t.Errorf("duplicate FuncID %q", id)
		}
		ids[id] = true
	}
}

// referenceUnits is the partition as it was computed before Build took
// it over: a flood fill through a pointer-keyed map in Program.All
// order, units sorted by first root.
func referenceUnits(p *Program) []*Unit {
	comp, next := map[*Function]int{}, 0
	for _, fn := range p.All {
		if _, done := comp[fn]; done {
			continue
		}
		stack := []*Function{fn}
		comp[fn] = next
		for len(stack) > 0 {
			cur := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, nbs := range [2][]*Function{cur.Callees, cur.Callers} {
				for _, nb := range nbs {
					if _, done := comp[nb]; !done {
						comp[nb] = next
						stack = append(stack, nb)
					}
				}
			}
		}
		next++
	}
	units := make([]*Unit, next)
	for i := range units {
		units[i] = &Unit{FirstRoot: -1}
	}
	for _, fn := range p.All {
		u := units[comp[fn]]
		u.Funcs = append(u.Funcs, fn)
	}
	for i, r := range p.Roots {
		u := units[comp[r]]
		u.Roots = append(u.Roots, r)
		if u.FirstRoot < 0 {
			u.FirstRoot = i
		}
	}
	sort.Slice(units, func(i, j int) bool { return units[i].FirstRoot < units[j].FirstRoot })
	return units
}

// TestUnitsMatchReference: the partition Build computes is the one the
// map-based flood fill computed, member for member and in order, every
// unit knows its index and every function its unit — and it costs the
// same handful of objects whatever the size of the tree.
func TestUnitsMatchReference(t *testing.T) {
	mixed, _ := workload.MixedTree(4, 25, 2002)
	big, _ := workload.MixedTree(16, 25, 2002)
	trees := map[string]map[string]string{
		"call-rich": workload.CallRichTree(), "mixed": mixed, "mixed-4x": big,
		"recursion-and-statics": {
			"a.c": "static int depth;\nstatic int helper(int n) { return n ? helper(n - 1) : depth; }\nint even(int n);\nint odd(int n) { return n ? even(n - 1) : 0; }\nint a_entry(int n) { depth = n; return helper(n) + odd(n); }",
			"b.c": "static int depth;\nstatic int helper(int n) { depth = n; return n; }\nint odd(int n);\nint even(int n) { return n ? odd(n - 1) : 1; }\nint b_entry(int n) { return helper(n); }\nint lone(void) { return 0; }",
		},
	}
	allocs := map[string]float64{}
	for name, srcs := range trees {
		p, err := BuildSource(srcs)
		if err != nil {
			t.Fatal(err)
		}
		got, want := p.Units(), referenceUnits(p)
		if len(got) != len(want) || len(got) == 0 {
			t.Fatalf("%s: %d units, the reference has %d", name, len(got), len(want))
		}
		same := func(a, b []*Function) bool {
			if len(a) != len(b) {
				return false
			}
			for i := range a {
				if a[i] != b[i] {
					return false
				}
			}
			return true
		}
		for i, u := range got {
			if u.Index != i || u.FirstRoot != want[i].FirstRoot || !same(u.Funcs, want[i].Funcs) || !same(u.Roots, want[i].Roots) {
				t.Errorf("%s: unit %d = {Index %d, FirstRoot %d, %d funcs, %d roots}; the reference has {FirstRoot %d, %d funcs, %d roots}",
					name, i, u.Index, u.FirstRoot, len(u.Funcs), len(u.Roots), want[i].FirstRoot, len(want[i].Funcs), len(want[i].Roots))
			}
			for _, fn := range u.Funcs {
				if fn.Unit != u {
					t.Errorf("%s: %s does not know its unit", name, fn.Name)
				}
			}
		}
		allocs[name] = testing.AllocsPerRun(5, func() {
			for _, fn := range p.All {
				fn.Unit = nil
			}
			p.buildUnits()
		})
	}
	if allocs["mixed"] != allocs["mixed-4x"] || allocs["mixed"] > 8 {
		t.Errorf("building the units allocates %v objects on the small tree and %v on the 4x one; want the same few", allocs["mixed"], allocs["mixed-4x"])
	}
}
