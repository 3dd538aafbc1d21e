// Incremental-analysis support: partitioning the call graph into
// independent units and computing the dirty closure of an edit
// (DESIGN.md §8). Both read only the call graph, so they are
// safe to call from concurrent engines.
package prog

// FuncID names a function uniquely and stably across rebuilds of the
// same sources: defining file plus name. (Static functions in
// different files share a bare name; the file disambiguates. Two
// same-named functions in one file is already a Build conflict.)
func FuncID(fn *Function) string {
	return fn.Decl.File + "\x00" + fn.Name
}

// AppendFuncID appends fn's FuncID to b.
func AppendFuncID(b []byte, fn *Function) []byte {
	return append(append(append(b, fn.Decl.File...), 0), fn.Name...)
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
// counters) is keyed by function and only flows along call edges,
// analyzing a unit in a fresh engine produces exactly the state the
// shared engine would have built for those functions — the property
// the incremental cache's replay correctness rests on — and nothing
// can read that state once the unit's last root has finished, so the
// unit list is also the retirement schedule (DESIGN.md §12).
type Unit struct {
	// Index is the unit's position in Program.Units().
	Index int
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

// Units returns the partition of the program into units, ordered by
// the position of each unit's first root in Program.Roots. Every
// function belongs to exactly one unit (Function.Unit) and every unit
// has a root (computeRoots reaches every function from Roots). Assemble
// computed it; callers only read it.
func (p *Program) Units() []*Unit { return p.units }

// PlanRetire does nothing: the unit list is the retirement schedule. It
// stays only because the frozen benchmark/layers.go:344 calls it.
func (p *Program) PlanRetire([]*Function) {}

// buildUnits is Assemble's last step: a flood fill over undirected call
// edges from each root not yet reached, in Program.Roots order, so units
// come out ordered by FirstRoot. The Unit structs, their Funcs and
// their Roots are carved from three backing arrays: the partition costs
// the same six objects whatever its size.
func (p *Program) buildUnits() {
	units := make([]Unit, 0, len(p.Roots)) // never regrown: &units[i] is stable
	nFuncs := make([]int, 2*len(p.Roots))
	nRoots := nFuncs[len(p.Roots):]
	stack := make([]*Function, 0, len(p.All)) // a function is pushed once
	for i, r := range p.Roots {
		if r.Unit == nil {
			units = append(units, Unit{Index: len(units), FirstRoot: i})
			r.Unit = &units[len(units)-1]
			stack = append(stack, r)
			for len(stack) > 0 {
				cur := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				nFuncs[r.Unit.Index]++
				for _, nbs := range [2][]*Function{cur.Callees, cur.Callers} {
					for _, nb := range nbs {
						if nb.Unit == nil {
							nb.Unit = r.Unit
							stack = append(stack, nb)
						}
					}
				}
			}
		}
		nRoots[r.Unit.Index]++
	}
	funcs := make([]*Function, len(p.All))
	roots := make([]*Function, len(p.Roots))
	p.units = make([]*Unit, len(units))
	for i := range units {
		u := &units[i]
		u.Funcs, funcs = funcs[:0:nFuncs[i]], funcs[nFuncs[i]:]
		u.Roots, roots = roots[:0:nRoots[i]], roots[nRoots[i]:]
		p.units[i] = u
	}
	for _, fn := range p.All {
		fn.Unit.Funcs = append(fn.Unit.Funcs, fn)
	}
	for _, r := range p.Roots {
		r.Unit.Roots = append(r.Unit.Roots, r)
	}
}

// DirtyClosure returns the set of functions whose analysis results an
// edit to the given functions can change: the edited functions plus
// their transitive callers. A callee's summary feeds every caller that
// follows the call (§6.2), so invalidation walks caller edges; callees
// of a changed function are unaffected unless separately changed.
// Nothing in the product calls it: unit keys decide what re-runs. It
// stays only because the frozen benchmark/layers.go:600 calls it.
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
