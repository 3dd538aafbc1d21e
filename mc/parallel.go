package mc

import (
	"repro/internal/cc"
	"repro/internal/core"
	"repro/internal/prog"
)

// This file is the set-up half of RunContext's parallel execution:
// pass-1 parsing fans out over a worker pool, and checker engines run
// concurrently within the phases planned by core.PlanPhases (runLive,
// unitrun.go). The scheduling never changes observable output — sources
// are parsed into name-sorted slots, engines only share the read-only
// prog.Program and the mutex-guarded core.Shared store, and the merge
// in RunContext reads tasks back in checker load order.

// parseSources runs pass 1 (cc.ParseFiles): every registered source is
// parsed on the worker pool, on every run — no store stands in for a
// parse (DESIGN.md §8). Pre-parsed ASTs (AddAST) pass through untouched.
// incr receives the parsed file count.
func (a *Analyzer) parseSources(incr *IncrStats) ([]*cc.File, error) {
	parsed, err := cc.ParseFiles(a.srcs, a.parallelism())
	if err != nil {
		return nil, err
	}
	incr.FilesReparsed = len(parsed)
	return append(append([]*cc.File(nil), a.files...), parsed...), nil
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
