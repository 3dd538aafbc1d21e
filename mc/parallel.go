package mc

import (
	"sort"

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

// liveEngine builds the traversal engine for checker ci: compiled
// dispatch attached (DESIGN.md §11), the function to render before its
// unit retires named (RunConfig.Supergraph). runLive adds the retire hook.
func (a *Analyzer) liveEngine(p *prog.Program, ci int, cd *core.CompiledDispatch) *core.Engine {
	en := core.NewEngineShared(p, a.checkers[ci], a.opts, a.shared)
	en.SetCompiled(cd, ci)
	en.Inspect(a.supergraph)
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
