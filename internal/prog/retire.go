// Unit retirement order for the streaming mode (DESIGN.md §12). A
// unit (weakly-connected call-graph component) is "retired" once every
// one of its roots, in a given traversal order, has finished: because
// no call edge crosses a unit boundary, no traversal started from any
// later root can reach the unit's functions, so their per-engine
// caches (and, once every engine agrees, their ASTs) may be evicted
// without perturbing the remaining run.
package prog

// RetirePlan maps each root to the set of functions that become
// retirable the moment that root's traversal completes. Built once per
// (engine, root order) and read-only afterwards, so it is safe to
// share across goroutines.
type RetirePlan struct {
	after map[*Function][]*Function
}

// PlanRetire computes the retirement schedule for traversing roots in
// the given order. Each function in the program belongs to exactly one
// unit; the unit's functions are attached to its last root in the
// order. Roots outside the program (or functions whose unit has no
// root in the list — possible when the caller analyzes a root subset)
// are simply never retired, which is conservative: eviction is an
// optimization, never a correctness requirement.
func (p *Program) PlanRetire(roots []*Function) *RetirePlan {
	if len(roots) == 0 {
		return &RetirePlan{}
	}
	comp, _ := p.components()
	// Last root per component in traversal order.
	last := map[int]*Function{}
	for _, r := range roots {
		if id, ok := comp[r]; ok {
			last[id] = r
		}
	}
	plan := &RetirePlan{after: map[*Function][]*Function{}}
	for _, fn := range p.All {
		id := comp[fn]
		if r, ok := last[id]; ok {
			plan.after[r] = append(plan.after[r], fn)
		}
	}
	return plan
}

// After returns the functions whose unit the given root's completion
// retires, in Program.All order; nil for roots that retire nothing.
func (rp *RetirePlan) After(root *Function) []*Function {
	if rp == nil || rp.after == nil {
		return nil
	}
	return rp.after[root]
}
