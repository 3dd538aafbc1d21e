package core

// Multi-checker compiled dispatch (DESIGN.md §11). With N loaded
// checkers the engine layer used to pay N independent per-block scans:
// each engine derived the same block features and tested its own
// transitions' pre-filter atoms against them. CompileDispatch builds,
// once per run, the union of every checker's transition patterns into
// one dispatch structure:
//
//   - a multi-pattern callee-name literal index (the Teddy-prefilter
//     analogue): one hash probe per distinct callee in a block answers
//     "which of the N checkers' transitions name this function?" for
//     all checkers at once;
//   - a discrimination tree keyed by root AST-node kind for non-call
//     shape patterns, plus a return-statement bucket; an atom with no
//     requirement at all (a callout) is a candidate in every block.
//
// One walk per block then yields the candidate (checker, transition)
// admit set as a bitset, shared read-only by every engine; the engines'
// mayFire gate becomes bitset probes instead of per-engine feature
// recomputation. On top of the per-block sets the compiler runs the
// depth-1 reachability argument: checker state only ever changes when a
// transition FIRES, so a checker none of whose initial-global-state
// transitions can fire anywhere in a scope is a provable no-op over
// that scope. Per-root callee-closure admit sets turn that into whole
// root skips (and whole-checker skips), which is what makes dispatch
// cost sublinear in the number of loaded checkers.
//
// Everything here is immutable after CompileDispatch returns, so one
// CompiledDispatch is safely shared by engines running concurrently.

import (
	"repro/internal/cc"
	"repro/internal/cfg"
	"repro/internal/metal"
	"repro/internal/pattern"
	"repro/internal/prog"
)

// compiledTrans is one checker transition in the union automaton.
type compiledTrans struct {
	checker int
	tr      *metal.Transition
	// eop: the pattern can match at an end-of-path dispatch, where no
	// block feature can rule it out.
	eop   bool
	atoms []filterAtom
}

// bitset is a fixed-capacity bit vector over entry ids.
type bitset []uint64

func newBitset(n int) bitset { return make(bitset, (n+63)/64) }

func (s bitset) set(i int32)      { s[i>>6] |= 1 << uint(i&63) }
func (s bitset) get(i int32) bool { return s[i>>6]&(1<<uint(i&63)) != 0 }

// or folds t into s (s |= t).
func (s bitset) or(t bitset) {
	for i := range t {
		s[i] |= t[i]
	}
}

func (s bitset) clone() bitset {
	out := make(bitset, len(s))
	copy(out, s)
	return out
}

// anyOf reports whether any listed entry bit is set.
func (s bitset) anyOf(ids []int32) bool {
	for _, id := range ids {
		if s.get(id) {
			return true
		}
	}
	return false
}

// idxEntry is one (entry, atom) row of an index bucket; the atom is
// re-verified against the block's features before the entry bit is
// set, so multi-requirement atoms stay precise.
type idxEntry struct {
	id   int32
	atom filterAtom
}

// CompiledDispatch is the per-run union automaton over all loaded
// checkers. Build with CompileDispatch, attach to engines with
// Engine.SetCompiled. Read-only after construction.
type CompiledDispatch struct {
	checkers []*metal.Checker
	entries  []compiledTrans
	// entryID maps a transition back to its entry (engines key their
	// transIdx by *metal.Transition).
	entryID map[*metal.Transition]int32

	// Literal index: callee name -> atom rows requiring that name
	// (root-callee fast path rows and nested-callee structural rows).
	byCallee map[string][]idxEntry
	// Discrimination tree: root kind -> atom rows with no callee
	// requirement; byRet holds return-statement rows.
	byKind [kindCount][]idxEntry
	byRet  []idxEntry
	// alwaysMask: entries with an unconstrained alternative (callout
	// fallback) — candidates in every block.
	alwaysMask bitset

	// blockAdmit: per block, the entries some point of the block can
	// satisfy. funcAdmit unions a function's blocks; rootAdmit unions a
	// root's callee closure; progAdmit unions everything.
	blockAdmit map[*cfg.Block]bitset
	funcAdmit  map[*prog.Function]bitset
	rootAdmit  map[*prog.Function]bitset
	progAdmit  bitset

	// initEntries lists, per checker, the entries sourced at its
	// initial global state — the only transitions that can fire before
	// any checker state exists. initEOP marks checkers with an initial
	// transition that fires at end-of-path (never skippable).
	initEntries [][]int32
	initEOP     []bool
	skipAll     []bool
}

// CompileDispatch builds the union automaton for the loaded checkers
// over the program. Cost is one feature pass per block plus one index
// probe per (block feature, bucket row) — paid once per run, then
// shared by every engine.
func CompileDispatch(p *prog.Program, checkers []*metal.Checker) *CompiledDispatch {
	cd := &CompiledDispatch{
		checkers:    checkers,
		entryID:     map[*metal.Transition]int32{},
		byCallee:    map[string][]idxEntry{},
		blockAdmit:  map[*cfg.Block]bitset{},
		funcAdmit:   map[*prog.Function]bitset{},
		rootAdmit:   map[*prog.Function]bitset{},
		initEntries: make([][]int32, len(checkers)),
		initEOP:     make([]bool, len(checkers)),
		skipAll:     make([]bool, len(checkers)),
	}

	// Entry construction.
	for ci, c := range checkers {
		init := metal.StateRef{Val: c.InitialGlobal()}
		for _, tr := range c.Transitions {
			id := int32(len(cd.entries))
			atoms := filterOf(tr.Pat).atoms
			eop := pattern.MayMatchEndOfPath(tr.Pat)
			cd.entries = append(cd.entries, compiledTrans{
				checker: ci,
				tr:      tr,
				eop:     eop,
				atoms:   atoms,
			})
			cd.entryID[tr] = id
			if tr.Source == init {
				cd.initEntries[ci] = append(cd.initEntries[ci], id)
				if eop {
					cd.initEOP[ci] = true
				}
			}
		}
	}

	// Index construction: each atom lands in exactly one bucket, keyed
	// by its sharpest requirement.
	n := len(cd.entries)
	cd.alwaysMask = newBitset(n)
	for id, e := range cd.entries {
		for _, a := range e.atoms {
			switch {
			case a == anyAtom:
				cd.alwaysMask.set(int32(id))
			case a.ret:
				cd.byRet = append(cd.byRet, idxEntry{id: int32(id), atom: a})
			case a.callee != "":
				cd.byCallee[a.callee] = append(cd.byCallee[a.callee], idxEntry{id: int32(id), atom: a})
			default:
				cd.byKind[a.kind] = append(cd.byKind[a.kind], idxEntry{id: int32(id), atom: a})
			}
		}
	}

	// One walk per block: features once, then index probes fill the
	// admit bitset for all checkers at once.
	cd.progAdmit = newBitset(n)
	for _, fn := range p.All {
		fa := newBitset(n)
		for _, b := range fn.Graph.Blocks {
			bits := cd.admitSet(b)
			cd.blockAdmit[b] = bits
			fa.or(bits)
		}
		cd.funcAdmit[fn] = fa
		cd.progAdmit.or(fa)
	}

	// Per-root callee-closure admit sets, then the skip tables.
	for _, root := range p.Roots {
		ra := newBitset(n)
		seen := map[*prog.Function]bool{}
		var walk func(*prog.Function)
		walk = func(fn *prog.Function) {
			if seen[fn] {
				return
			}
			seen[fn] = true
			if fa, ok := cd.funcAdmit[fn]; ok {
				ra.or(fa)
			}
			for _, c := range fn.Callees {
				walk(c)
			}
		}
		walk(root)
		cd.rootAdmit[root] = ra
	}
	for ci := range checkers {
		cd.skipAll[ci] = !cd.canFire(ci, cd.progAdmit)
	}
	return cd
}

// admitSet computes one block's candidate-entry bitset: block features
// once, then one literal-index probe per distinct callee, one
// discrimination-tree bucket per present root kind, the return bucket
// if the block returns, and the always mask.
func (cd *CompiledDispatch) admitSet(b *cfg.Block) bitset {
	var points []cc.Expr
	for _, e := range b.Exprs {
		points = cc.ExecOrder(e, points)
	}
	feats := featsOf(b, points)
	bits := cd.alwaysMask.clone()
	if feats.isReturn {
		for _, row := range cd.byRet {
			if feats.admits(row.atom) {
				bits.set(row.id)
			}
		}
	}
	for name := range feats.callees {
		for _, row := range cd.byCallee[name] {
			if feats.admits(row.atom) {
				bits.set(row.id)
			}
		}
	}
	for k := int8(0); k < kindCount; k++ {
		if feats.kinds&(1<<uint(k)) == 0 {
			continue
		}
		// Rows in the kind tree carry no callee requirement: the kind
		// bit being present is the whole test.
		for _, row := range cd.byKind[k] {
			bits.set(row.id)
		}
	}
	return bits
}

// canFire reports whether checker ci's initial-global-state transitions
// can fire somewhere in the scope described by the admit set. A checker
// whose initial transitions cannot fire in a scope is a no-op over it:
// state only changes when a transition fires, so no instance is ever
// created, the global state never moves, and no action (report, mark,
// rule count) ever runs.
func (cd *CompiledDispatch) canFire(ci int, scope bitset) bool {
	return cd.initEOP[ci] || scope.anyOf(cd.initEntries[ci])
}

// SkipRoot reports that checker ci provably fires nothing anywhere in
// the given root's callee closure, so its traversal can be skipped
// with byte-identical output.
func (cd *CompiledDispatch) SkipRoot(ci int, root *prog.Function) bool {
	if cd.skipAll[ci] {
		return true
	}
	ra, ok := cd.rootAdmit[root]
	if !ok {
		return false // unknown root (RunRoots on a non-root): stay conservative
	}
	return !cd.canFire(ci, ra)
}

// blockMayFire answers the engine's per-(block, state-ref) gate from
// the precomputed admit set: can any of the ref's transitions fire at
// some point of the block?
func (cd *CompiledDispatch) blockMayFire(b *cfg.Block, trs []*metal.Transition) bool {
	bits, ok := cd.blockAdmit[b]
	if !ok {
		return true // block outside the compiled program: conservative
	}
	for _, tr := range trs {
		id, ok := cd.entryID[tr]
		if !ok {
			return true // transition unknown to the compiler: conservative
		}
		if bits.get(id) {
			return true
		}
	}
	return false
}
