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
//     all checkers at once — "{ fn(args) } && ${ mc_is_call_to(fn,
//     "gets") }" included, keyed by "gets" like "{ gets(args) }";
//   - a discrimination tree keyed by root AST-node kind for callee-free
//     shape patterns ("{ fn(args) }" alone, or with any other callout,
//     sits in the call bucket), plus a return-statement bucket; an atom
//     with no requirement at all (a bare callout, a hole root) is a
//     candidate in every block.
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
	"cmp"
	"slices"

	"repro/internal/cfg"
	"repro/internal/metal"
	"repro/internal/pattern"
	"repro/internal/prog"
)

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
	// entries holds one row per checker transition in the union
	// automaton: the alternatives of its pattern's pre-filter
	// (prefilter.go).
	entries [][]filterAtom
	// firstEntry[ci] is the entry id of checker ci's first transition;
	// a checker's transitions take consecutive ids in declaration
	// order, which is how an engine names its own (SetCompiled).
	firstEntry []int32

	// Literal index: callee name -> atom rows requiring that name
	// (root-callee fast path rows and nested-callee structural rows).
	byCallee map[string][]idxEntry
	// Discrimination tree: root kind -> atom rows with no callee
	// requirement; byRet holds return-statement rows.
	byKind [kindCount][]idxEntry
	byRet  []idxEntry
	// alwaysMask: entries with an unconstrained alternative (a bare
	// callout, a hole root) — candidates in every block.
	alwaysMask bitset

	// blockAdmit[fn.Index][b.ID]: the entries some point of the block
	// can satisfy. funcAdmit[fn.Index] unions a function's blocks;
	// rootAdmit[root.Index] unions a root's callee closure (nil for a
	// function that is no root); progAdmit unions everything.
	blockAdmit [][]bitset
	funcAdmit  []bitset
	rootAdmit  []bitset
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
	cd := newDispatch(checkers)

	// Index construction: each atom lands in exactly one bucket, keyed
	// by its sharpest requirement.
	cd.byCallee = map[string][]idxEntry{}
	cd.alwaysMask = newBitset(len(cd.entries))
	for id, atoms := range cd.entries {
		for _, a := range atoms {
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
	var feats blockFeats
	cd.fill(p, func(b *cfg.Block, bits bitset) { cd.admitSet(&feats, b, bits) })
	return cd
}

// newDispatch numbers the checkers' transitions and records which of
// them are sourced at each checker's initial global state.
func newDispatch(checkers []*metal.Checker) *CompiledDispatch {
	cd := &CompiledDispatch{
		checkers:    checkers,
		firstEntry:  make([]int32, len(checkers)),
		initEntries: make([][]int32, len(checkers)),
		initEOP:     make([]bool, len(checkers)),
		skipAll:     make([]bool, len(checkers)),
	}
	for ci, c := range checkers {
		cd.firstEntry[ci] = int32(len(cd.entries))
		init := metal.StateRef{Val: c.InitialGlobal()}
		// A checker that overrides mc_is_call_to keeps the callout
		// opaque (filterOf).
		_, ownCallTo := c.Callouts["mc_is_call_to"]
		for _, tr := range c.Transitions {
			id := int32(len(cd.entries))
			cd.entries = append(cd.entries, filterOf(tr.Pat, !ownCallTo))
			if tr.Source == init {
				cd.initEntries[ci] = append(cd.initEntries[ci], id)
				// At an end-of-path dispatch no block feature can rule
				// the pattern out.
				if pattern.MayMatchEndOfPath(tr.Pat) {
					cd.initEOP[ci] = true
				}
			}
		}
	}
	return cd
}

// fill computes the admit tables from a per-block admit function, which
// sets a block's bits in the zeroed set it is given: one walk per block,
// then the per-function, per-program and per-root (callee closure) unions
// and the skip tables. Every set is carved from one array and every
// function's block table from one slice, so the tables cost a handful of
// objects however many blocks the program has.
func (cd *CompiledDispatch) fill(p *prog.Program, admit func(*cfg.Block, bitset)) {
	words := (len(cd.entries) + 63) / 64
	blocks := 0
	for _, fn := range p.All {
		blocks += len(fn.Graph.Blocks)
	}
	slab := make([]uint64, (blocks+len(p.All)+len(p.Roots)+1)*words)
	carve := func() bitset {
		s := bitset(slab[:words:words])
		slab = slab[words:]
		return s
	}
	tables := make([]bitset, blocks)
	cd.blockAdmit = make([][]bitset, len(p.All))
	cd.funcAdmit = make([]bitset, len(p.All))
	cd.rootAdmit = make([]bitset, len(p.All))
	cd.progAdmit = carve()
	for _, fn := range p.All {
		fa := carve()
		n := len(fn.Graph.Blocks)
		tab := tables[:n:n]
		tables = tables[n:]
		for i, b := range fn.Graph.Blocks {
			tab[i] = carve()
			admit(b, tab[i])
			fa.or(tab[i])
		}
		cd.blockAdmit[fn.Index] = tab
		cd.funcAdmit[fn.Index] = fa
		cd.progAdmit.or(fa)
	}

	// visited[fn.Index] is the ordinal (from 1) of the last root whose
	// closure walk reached fn; work is the walk's stack.
	visited := make([]int, len(p.All))
	var work []*prog.Function
	for ri, root := range p.Roots {
		ra := carve()
		visited[root.Index] = ri + 1
		work = append(work[:0], root)
		for len(work) > 0 {
			fn := work[len(work)-1]
			work = work[:len(work)-1]
			ra.or(cd.funcAdmit[fn.Index])
			for _, c := range fn.Callees {
				if visited[c.Index] != ri+1 {
					visited[c.Index] = ri + 1
					work = append(work, c)
				}
			}
		}
		cd.rootAdmit[root.Index] = ra
	}
	for ci := range cd.checkers {
		cd.skipAll[ci] = !cd.canFire(ci, cd.progAdmit)
	}
}

// admitSet sets one block's candidate entries in bits: block features
// once, into the compiler's one scratch, then one literal-index probe
// per distinct callee, one discrimination-tree bucket per present root
// kind, the return bucket if the block returns, and the always mask.
func (cd *CompiledDispatch) admitSet(feats *blockFeats, b *cfg.Block, bits bitset) {
	feats.load(b)
	copy(bits, cd.alwaysMask)
	if feats.isReturn {
		for _, row := range cd.byRet {
			if feats.admits(row.atom) {
				bits.set(row.id)
			}
		}
	}
	for _, name := range feats.callees {
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
}

// stateSym is a metal.StateRef numbered by an engine's interner: v 0 is
// the global state.
type stateSym struct{ v, val int32 }

// rule is one of the checker's transitions with its states numbered;
// pos is its position in Checker.Transitions.
type rule struct {
	*metal.Transition
	pos                            int32
	src, dest, trueDest, falseDest stateSym
}

// srcRules lists the rules sourced at one state, in source order, and
// their compiled-dispatch entry ids (Engine.SetCompiled fills them in).
type srcRules struct {
	rules   []rule
	entries []int32
}

// stateIdx indexes a checker's rules by source state (v, val), v 0 being
// the global state: row v of stride values each.
type stateIdx struct {
	rows   []srcRules
	stride int
}

// noRules is what a state no transition is sourced at has.
var noRules srcRules

// at returns the rules sourced at (v, val). A symbol numbered after the
// index was built (an imported summary's) has none.
func (x *stateIdx) at(v, val int32) *srcRules {
	if i := int(v)*x.stride + int(val); int(val) < x.stride && i < len(x.rows) {
		return &x.rows[i]
	}
	return &noRules
}

// numberStates numbers the checker's state symbols in an engine's
// interner before its first block — the initial global state, then
// every state a transition names, which is every state an instance or
// the global state can reach — and indexes the transitions by source
// state. Unlike the dispatch above, the numbering and the index are the
// engine's own. A symbol first seen later (an imported summary's) gets
// a later number, and no rule.
func numberStates(in *interner, c *metal.Checker) (initG int32, idx stateIdx) {
	nvals := len(c.GlobalStates)
	for _, vs := range c.VarStates {
		nvals += len(vs)
	}
	in.vars.strs = slices.Grow(in.vars.strs, len(c.Vars))
	in.vals.strs = slices.Grow(in.vals.strs, 1+nvals)
	sym := func(r metal.StateRef) stateSym { return stateSym{in.vars.id(r.Var), in.vals.id(r.Val)} }
	initG = in.vals.id(c.InitialGlobal())
	rules := make([]rule, len(c.Transitions))
	for i, tr := range c.Transitions {
		rules[i] = rule{Transition: tr, pos: int32(i),
			src: sym(tr.Source), dest: sym(tr.Dest), trueDest: sym(tr.TrueDest), falseDest: sym(tr.FalseDest)}
	}
	// One array each for the rules and their entry ids, every state's
	// a contiguous run in source order.
	slices.SortStableFunc(rules, func(a, b rule) int {
		return cmp.Or(cmp.Compare(a.src.v, b.src.v), cmp.Compare(a.src.val, b.src.val))
	})
	entries := make([]int32, len(rules))
	idx = stateIdx{rows: make([]srcRules, len(in.vars.strs)*len(in.vals.strs)), stride: len(in.vals.strs)}
	for lo := 0; lo < len(rules); {
		hi := lo + 1
		for hi < len(rules) && rules[hi].src == rules[lo].src {
			hi++
		}
		src := rules[lo].src
		idx.rows[int(src.v)*idx.stride+int(src.val)] = srcRules{rules: rules[lo:hi:hi], entries: entries[lo:hi:hi]}
		lo = hi
	}
	return initG, idx
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
	ra := cd.rootAdmit[root.Index]
	if ra == nil {
		return false // a run rooted at a non-root: stay conservative
	}
	return !cd.canFire(ci, ra)
}
