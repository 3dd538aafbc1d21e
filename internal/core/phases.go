package core

import "repro/internal/metal"

// This file plans the concurrent execution of multiple checkers over
// one program. §7's determinism/independence conditions make each
// checker's traversal independent given a read-only program — except
// for the §3.2 composition channel: checkers may write function
// annotations (the mark_fn action) that later checkers read (the
// mc_fn_marked callout). Sequential runs give that channel a precise
// semantics: a checker sees exactly the marks written by checkers
// loaded before it. The phase plan preserves that semantics under
// concurrency.

// PlanPhases partitions checkers (given in load order) into phases.
// Checkers within one phase may run concurrently; a barrier separates
// phases. The plan returns indices into the input slice; concatenated,
// the phases enumerate every checker exactly once, in load order.
//
// Invariant: within a phase, no checker reads annotations while
// another may write them. Greedily extending the current phase, a
// checker starts a new phase exactly when
//
//   - it consumes annotations and the phase already holds an
//     annotator (it must observe those writes, as it would have
//     sequentially), or
//   - it writes annotations and the phase already holds a consumer
//     (its writes must stay invisible to that consumer, which ran
//     before it sequentially).
//
// Annotators and consumers are what metal.Checker.WritesMarks and
// ReadsMarks say; a checker carrying Go callouts counts as both.
// Annotation writes are idempotent boolean sets, so annotators commute
// with each other; consumers only read and commute trivially. Checkers
// that do neither join any phase.
func PlanPhases(cs []*metal.Checker) [][]int {
	var phases [][]int
	var cur []int
	hasAnnotator, hasConsumer := false, false
	for i, c := range cs {
		w, r := c.WritesMarks(), c.ReadsMarks()
		if (r && hasAnnotator) || (w && hasConsumer) {
			phases = append(phases, cur)
			cur = nil
			hasAnnotator, hasConsumer = false, false
		}
		cur = append(cur, i)
		hasAnnotator = hasAnnotator || w
		hasConsumer = hasConsumer || r
	}
	if len(cur) > 0 {
		phases = append(phases, cur)
	}
	return phases
}
