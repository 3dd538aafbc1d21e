package mc

import (
	"context"
	"sort"
	"sync"

	"repro/internal/cache"
	"repro/internal/cc"
	"repro/internal/core"
	"repro/internal/prog"
)

// This file is the parallel execution layer of Analyzer.Run: pass-1
// parsing fans out over a worker pool, and checker engines run
// concurrently within the phases planned by core.PlanPhases. The
// scheduling never changes observable output — sources are parsed into
// name-sorted slots, engines only share the read-only prog.Program and
// the mutex-guarded core.Shared store, and the merge in Run reads
// engines back in checker load order.

// parseSources runs pass 1 (cache.LoadSources): every registered source
// is parsed on the worker pool, through the pass-1 AST cache when the
// run has a store. Pre-parsed ASTs (AddAST) pass through untouched.
// incr, when non-nil, receives the replayed/reparsed file counts.
func (a *Analyzer) parseSources(incr *IncrStats) ([]*cc.File, error) {
	parsed, replayed, err := cache.LoadSources(a.cacheStore, a.srcs, a.parallelism())
	if err != nil {
		return nil, err
	}
	if incr != nil {
		incr.FilesReplayed = replayed
		incr.FilesReparsed = len(parsed) - replayed
	}
	return append(append([]*cc.File(nil), a.files...), parsed...), nil
}

// liveEngine builds the traversal engine for checker ci: compiled
// dispatch attached (DESIGN.md §11), plus the spill, retire and
// shared-retired hooks when the run streams (DESIGN.md §12).
func (a *Analyzer) liveEngine(p *prog.Program, ci int, cd *core.CompiledDispatch, stream *streamState) *core.Engine {
	en := core.NewEngineShared(p, a.checkers[ci], a.opts, a.shared)
	en.SetCompiled(cd, ci)
	if stream != nil {
		fp := a.checkerFPs[ci]
		en.SetSpill(stream.store, stream.keyFor(fp))
		en.SetRetire(stream.retire, stream.release.done)
		en.ShareRetired(stream.retired[fp])
	}
	return en
}

// markEntry is one pre-annotation: MarkFunction(name, key).
type markEntry struct {
	name, key string
}

// sortedMarks flattens the mark map into a deterministic application
// order: names sorted, keys in registration order per name. Ranging
// over the map directly would hand marks to the engine in a different
// order each run — the determinism hazard §5.1 forbids.
func (a *Analyzer) sortedMarks() []markEntry {
	names := make([]string, 0, len(a.marks))
	for n := range a.marks {
		names = append(names, n)
	}
	sort.Strings(names)
	var out []markEntry
	for _, n := range names {
		for _, k := range a.marks[n] {
			out = append(out, markEntry{name: n, key: k})
		}
	}
	return out
}

// runPhase executes one phase's engines, at most a.parallelism() at a
// time. Slots are acquired in load order, so -j 1 degenerates to the
// exact sequential schedule. Each engine polls ctx during traversal;
// panics are contained per engine inside RunContext (governance
// layer), so a crashing checker never kills a worker goroutine.
func (a *Analyzer) runPhase(ctx context.Context, engines []*core.Engine, phase []int) {
	if len(phase) == 1 {
		engines[phase[0]].RunContext(ctx)
		return
	}
	sem := make(chan struct{}, a.parallelism())
	var wg sync.WaitGroup
	for _, i := range phase {
		sem <- struct{}{}
		wg.Add(1)
		go func(en *core.Engine) {
			defer wg.Done()
			defer func() { <-sem }()
			en.RunContext(ctx)
		}(engines[i])
	}
	wg.Wait()
}
