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
// recomputation. Beside the per-block sets the compiler runs the
// depth-1 reachability argument: checker state only ever changes when a
// transition FIRES, so a checker none of whose initial-global-state
// transitions can fire anywhere in a scope is a provable no-op over
// that scope. Decided per root from the names its callee closure calls
// (fillLive), before any body is built, that turns into whole root
// skips (a checker that fires nowhere skips every root), which is what
// makes dispatch cost sublinear in the number of loaded checkers.
//
// Everything here is immutable after CompileDispatch returns, so one
// CompiledDispatch is safely shared by engines running concurrently.

import (
	"cmp"
	"slices"

	"repro/internal/cc"
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
	// (root-callee fast path rows, nested-callee structural rows and
	// return-statement rows that name a callee).
	byCallee map[string][]idxEntry
	// Discrimination tree: root kind -> atom rows with no callee
	// requirement; byRet holds the other return-statement rows.
	byKind [kindCount][]idxEntry
	byRet  []idxEntry
	// alwaysMask: entries with an unconstrained alternative (a bare
	// callout, a hole root) — candidates in every block.
	alwaysMask bitset

	// blockAdmit[fn.Index][b.ID]: the entries some point of the block
	// can satisfy (nil while fn's unit is not built).
	blockAdmit [][]bitset
	// live holds a row of bits per function, by Function.Index, a bit
	// per checker at a stride of whole words: a root's row has the
	// checkers that may fire somewhere in its callee closure (fillLive),
	// any other function's has every bit set.
	live bitset

	// initEntries lists, per checker, the entries sourced at its
	// initial global state — the only transitions that can fire before
	// any checker state exists. initEOP marks checkers with an initial
	// transition that fires at end-of-path (never skippable).
	initEntries [][]int32
	initEOP     []bool
}

// CompileDispatch builds the union automaton for the loaded checkers
// over the program, every root's skip set from pass 1's names
// (fillLive), and the admit tables of every unit whose bodies are built
// (AddUnits): a unit built later gets its tables from AddUnits then. It
// must run before any unit is retired: a retired body keeps neither its
// names nor its CFG. Cost is one feature pass per block plus one index
// probe per (block feature, bucket row) — paid once per run, then
// shared by every engine.
func CompileDispatch(p *prog.Program, checkers []*metal.Checker) *CompiledDispatch {
	cd := newDispatch(p, checkers)

	// Index construction: each atom lands in exactly one bucket, keyed
	// by its sharpest requirement; every atom that names a callee is in
	// the callee index.
	cd.byCallee = map[string][]idxEntry{}
	cd.alwaysMask = newBitset(len(cd.entries))
	for id, atoms := range cd.entries {
		for _, a := range atoms {
			switch {
			case a == anyAtom:
				cd.alwaysMask.set(int32(id))
			case a.callee != "":
				cd.byCallee[a.callee] = append(cd.byCallee[a.callee], idxEntry{id: int32(id), atom: a})
			case a.ret:
				cd.byRet = append(cd.byRet, idxEntry{id: int32(id), atom: a})
			default:
				cd.byKind[a.kind] = append(cd.byKind[a.kind], idxEntry{id: int32(id), atom: a})
			}
		}
	}
	cd.fillLive(p)
	cd.AddUnits(p.Units())
	return cd
}

// newDispatch numbers the checkers' transitions, records which of them
// are sourced at each checker's initial global state, and makes the
// program's admit tables, empty.
func newDispatch(p *prog.Program, checkers []*metal.Checker) *CompiledDispatch {
	cd := &CompiledDispatch{
		checkers:    checkers,
		firstEntry:  make([]int32, len(checkers)),
		initEntries: make([][]int32, len(checkers)),
		initEOP:     make([]bool, len(checkers)),
		blockAdmit:  make([][]bitset, len(p.All)),
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

// fillLive computes each root's live set: the checkers that may fire
// somewhere in its callee closure, from pass 1's names alone. Before a
// checker's first transition fires only its initial-global-state
// entries can, and an atom that names a callee is admitted only in a
// block that calls the name, an assignment atom only in one with an
// assignment point too (blockFeats.admits). So a function can fire a
// checker only where it calls the name of one of the checker's initial
// rows in the callee index, beside an assignment where the row is an
// assignment's. What a function calls is its skim's Callees and
// Assigns, or for a body pass 1 parsed in place the call and assignment
// points of its CFG (TestSkimMatchesParse holds the two to each other).
// A checker with an end-of-path initial transition, or an initial
// alternative that names no callee, is live at every root.
func (cd *CompiledDispatch) fillLive(p *prog.Program) {
	words := (len(cd.checkers) + 63) / 64
	// owner[id] is 1 + the checker whose initial entry id is, 0 for an
	// entry that is no checker's initial one.
	owner := make([]int32, len(cd.entries))
	// Row 0 of the slab holds the checkers live at every root, row
	// 1+fn.Index the checkers fn's own calls may fire, and the rest is
	// the live table.
	n := len(p.All)
	slab := make([]uint64, (1+2*n)*words)
	row := func(i int) bitset { return bitset(slab[i*words : (i+1)*words : (i+1)*words]) }
	anywhere := row(0)
	for ci, ids := range cd.initEntries {
		if cd.initEOP[ci] {
			anywhere.set(int32(ci))
		}
		for _, id := range ids {
			owner[id] = int32(ci) + 1
			if slices.ContainsFunc(cd.entries[id], func(a filterAtom) bool { return a.callee == "" }) {
				anywhere.set(int32(ci))
			}
		}
	}

	call := func(fire bitset, name string, assigns bool) {
		for _, r := range cd.byCallee[name] {
			if ci := owner[r.id] - 1; ci >= 0 && (assigns || r.atom.ret || r.atom.kind != kindAssign) {
				fire.set(ci)
			}
		}
	}
	for _, fn := range p.All {
		fire := row(1 + fn.Index)
		if fn.Graph == nil {
			for _, name := range fn.Decl.Skim.Callees {
				call(fire, name, fn.Decl.Skim.Assigns)
			}
			continue
		}
		assigns := false
		for _, b := range fn.Graph.Blocks {
			for _, pt := range b.Points {
				if _, ok := pt.(*cc.AssignExpr); ok {
					assigns = true
				}
			}
		}
		for _, b := range fn.Graph.Blocks {
			for _, pt := range b.Points {
				if c, ok := pt.(*cc.CallExpr); ok {
					if name := cc.CalleeName(c); name != "" {
						call(fire, name, assigns)
					}
				}
			}
		}
	}

	// A root's live row unions its callee closure's fire rows.
	// visited[fn.Index] is the ordinal (from 1) of the last root whose
	// walk reached fn; work is the walk's stack.
	cd.live = slab[(1+n)*words:]
	for i := range cd.live {
		cd.live[i] = ^uint64(0)
	}
	visited := make([]int32, n)
	var work []*prog.Function
	for i, root := range p.Roots {
		ri := int32(i) + 1
		live := row(1 + n + root.Index)
		copy(live, anywhere)
		visited[root.Index] = ri
		work = append(work[:0], root)
		for len(work) > 0 {
			fn := work[len(work)-1]
			work = work[:len(work)-1]
			live.or(row(1 + fn.Index))
			for _, c := range fn.Callees {
				if visited[c.Index] != ri {
					visited[c.Index] = ri
					work = append(work, c)
				}
			}
		}
	}
}

// HasUnit reports whether the dispatch has u's admit tables (AddUnits),
// which it has only once u's bodies are built.
func (cd *CompiledDispatch) HasUnit(u *prog.Unit) bool { return cd.blockAdmit[u.Funcs[0].Index] != nil }

// AddUnits computes the admit tables of the given units whose bodies
// are built (prog.Program.BuildUnits), skipping any it already has and
// any with a body not built yet. It writes only those units' entries,
// so engines running other units may read the dispatch meanwhile; two
// AddUnits calls must not overlap.
func (cd *CompiledDispatch) AddUnits(units []*prog.Unit) {
	skip := func(u *prog.Unit) bool {
		return cd.HasUnit(u) ||
			slices.ContainsFunc(u.Funcs, func(fn *prog.Function) bool { return fn.Graph == nil })
	}
	if i := slices.IndexFunc(units, skip); i >= 0 {
		todo := slices.Clone(units[:i]) // no array while nothing is kept
		for _, u := range units[i+1:] {
			if !skip(u) {
				todo = append(todo, u)
			}
		}
		units = todo
	}
	if len(units) > 0 {
		var feats blockFeats
		cd.fillUnits(units, func(b *cfg.Block, bits bitset) { cd.admitSet(&feats, b, bits) })
	}
}

// fillUnits computes the given units' admit tables from a per-block
// admit function, which sets a block's bits in the zeroed set it is
// given: one walk per block. Every set is carved from one array and
// every function's block table from one slice, so the tables cost a
// handful of objects however many blocks the units have.
func (cd *CompiledDispatch) fillUnits(units []*prog.Unit, admit func(*cfg.Block, bitset)) {
	words := (len(cd.entries) + 63) / 64
	blocks := 0
	for _, u := range units {
		for _, fn := range u.Funcs {
			blocks += len(fn.Graph.Blocks)
		}
	}
	slab := make([]uint64, blocks*words)
	tables := make([]bitset, blocks)
	for _, u := range units {
		for _, fn := range u.Funcs {
			n := len(fn.Graph.Blocks)
			tab := tables[:n:n]
			tables = tables[n:]
			for i, b := range fn.Graph.Blocks {
				tab[i], slab = bitset(slab[:words:words]), slab[words:]
				admit(b, tab[i])
			}
			cd.blockAdmit[fn.Index] = tab
		}
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

// SkipRoot reports that checker ci provably fires nothing anywhere in
// the given root's callee closure, so its traversal can be skipped
// with byte-identical output: state only changes when a transition
// fires, so where none of the checker's initial-global-state
// transitions can fire, no instance is ever created, the global state
// never moves, and no action (report, mark, rule count) ever runs. It
// is decided from pass 1's names (fillLive), so it holds the same
// before and after the root's bodies are built. A run rooted at a
// non-root stays conservative.
func (cd *CompiledDispatch) SkipRoot(ci int, root *prog.Function) bool {
	stride := (len(cd.checkers) + 63) / 64 * 64
	return !cd.live.get(int32(root.Index*stride + ci))
}
