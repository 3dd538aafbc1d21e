package mc

import (
	"repro/internal/cc"
	"repro/internal/core"
	"repro/internal/prog"
)

// This file is the set-up half of RunContext's parallel execution:
// pass 1 fans out over a worker pool, and checker engines run
// concurrently within the phases planned by core.PlanPhases (runLive,
// unitrun.go). The scheduling never changes observable output — sources
// are parsed into name-sorted slots, engines only share the read-only
// prog.Program and the mutex-guarded core.Shared store, and the merge
// in RunContext reads tasks back in checker load order.

// skimSources runs pass 1 (cc.SkimFiles) on the worker pool, on every
// run: declarations are parsed and bodies skimmed, and no store stands
// in for it (DESIGN.md §8). UnitTree.build parses the bodies a run
// needs. Pre-parsed ASTs (AddAST) pass through untouched. incr receives
// the file count.
func (a *Analyzer) skimSources(incr *IncrStats) ([]*cc.File, error) {
	files, err := cc.SkimFiles(a.srcs, a.parallelism())
	if err != nil {
		return nil, err
	}
	incr.FilesReparsed = len(files)
	return append(append([]*cc.File(nil), a.files...), files...), nil
}

// program runs pass 1 and builds every unit: the whole program that
// Supergraph and InferPairs inspect. Its error is the first parse error
// in source order, as a run's is.
func (a *Analyzer) program() (*prog.Program, error) {
	files, err := a.skimSources(&IncrStats{})
	if err != nil {
		return nil, err
	}
	p := prog.Assemble(files...)
	if _, err := p.BuildUnits(p.Units(), a.parallelism()); err != nil {
		return nil, err
	}
	return p, nil
}

// liveEngine builds the traversal engine for checker ci over the run's
// annotation store, compiled dispatch attached (DESIGN.md §11). runLive
// adds the retire hook.
func (a *Analyzer) liveEngine(p *prog.Program, ci int, cd *core.CompiledDispatch, shared *core.Shared) *core.Engine {
	en := core.NewEngineShared(p, a.checkers[ci], a.opts, shared)
	en.SetCompiled(cd, ci)
	return en
}

// preMarked returns a fresh annotation store holding the
// pre-annotations. The store is a set and every reader of it ignores
// the order marks went in, so they are applied as registered. Each run
// starts from one: marks never outlive their run.
func (a *Analyzer) preMarked() *core.Shared {
	shared := core.NewShared()
	for _, m := range a.marks {
		shared.Mark(m.Name, m.Key)
	}
	return shared
}
