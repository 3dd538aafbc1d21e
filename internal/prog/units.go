// Incremental-analysis support: partitioning the call graph into
// independent units and computing the dirty closure of an edit
// (DESIGN.md §8). Both operate on the immutable Program, so they are
// safe to call from concurrent engines.
package prog

import "sort"

// FuncID names a function uniquely and stably across rebuilds of the
// same sources: defining file plus name. (Static functions in
// different files share a bare name; the file disambiguates. Two
// same-named functions in one file is already a Build conflict.)
func FuncID(fn *Function) string {
	return fn.Decl.File + "\x00" + fn.Name
}

// FuncByID resolves a FuncID to its function, or nil. The index is built
// on first use, once per Program; it is the one piece of lazily derived
// state a built Program carries, and safe under concurrent readers.
func (p *Program) FuncByID(id string) *Function {
	p.byIDOnce.Do(func() {
		p.byID = make(map[string]*Function, len(p.All))
		for _, fn := range p.All {
			p.byID[FuncID(fn)] = fn
		}
	})
	return p.byID[id]
}

// Unit is one weakly-connected component of the call graph: a maximal
// set of functions with no call edges in or out. Because the engine's
// per-function state (block caches, function summaries, analysis
// counters) is keyed by *Function and only flows along call edges,
// analyzing a unit in a fresh engine produces exactly the state the
// shared engine would have built for those functions — the property
// the incremental cache's replay correctness rests on.
type Unit struct {
	// Funcs lists the member functions in Program.All order.
	Funcs []*Function
	// Roots lists the member roots in global Program.Roots order, so
	// concatenating per-unit root sequences ordered by FirstRoot
	// reproduces the global root order.
	Roots []*Function
	// FirstRoot is the index into Program.Roots of this unit's first
	// root. Units are ordered by it.
	FirstRoot int
}

// components numbers the weakly-connected components of the call graph:
// a flood fill over undirected call edges, ids in Program.All order of
// each component's first member. n is the component count.
func (p *Program) components() (comp map[*Function]int, n int) {
	comp = map[*Function]int{}
	for _, fn := range p.All {
		if _, done := comp[fn]; done {
			continue
		}
		stack := []*Function{fn}
		comp[fn] = n
		for len(stack) > 0 {
			cur := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, nbs := range [2][]*Function{cur.Callees, cur.Callers} {
				for _, nb := range nbs {
					if _, done := comp[nb]; !done {
						comp[nb] = n
						stack = append(stack, nb)
					}
				}
			}
		}
		n++
	}
	return comp, n
}

// Units partitions the program into weakly-connected components of the
// call graph, ordered by the position of each component's first root
// in Program.Roots. Every function belongs to exactly one unit, and
// every unit has at least one root (computeRoots guarantees all
// functions are reachable from Roots).
func (p *Program) Units() []*Unit {
	comp, next := p.components()
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

// DirtyClosure returns the set of functions whose analysis results an
// edit to the given functions can change: the edited functions plus
// their transitive callers. A callee's summary feeds every caller that
// follows the call (§6.2), so invalidation walks caller edges; callees
// of a changed function are unaffected unless separately changed.
func (p *Program) DirtyClosure(changed []*Function) map[*Function]bool {
	dirty := map[*Function]bool{}
	var walk func(*Function)
	walk = func(fn *Function) {
		if dirty[fn] {
			return
		}
		dirty[fn] = true
		for _, c := range fn.Callers {
			walk(c)
		}
	}
	for _, fn := range changed {
		walk(fn)
	}
	return dirty
}
