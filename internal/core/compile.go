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
// root skips (a checker that fires nowhere skips every root), which is
// what makes dispatch cost sublinear in the number of loaded checkers.
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
	// function that is no root, or whose unit is not built yet).
	blockAdmit [][]bitset
	funcAdmit  []bitset
	rootAdmit  []bitset

	// initEntries lists, per checker, the entries sourced at its
	// initial global state — the only transitions that can fire before
	// any checker state exists. initEOP marks checkers with an initial
	// transition that fires at end-of-path (never skippable).
	initEntries [][]int32
	initEOP     []bool
}

// CompileDispatch builds the union automaton for the loaded checkers
// over the program, and the admit tables of every unit whose bodies are
// built (AddUnits): a unit built later gets its tables from AddUnits
// then. Cost is one feature pass per block plus one index probe per
// (block feature, bucket row) — paid once per run, then shared by every
// engine.
func CompileDispatch(p *prog.Program, checkers []*metal.Checker) *CompiledDispatch {
	cd := newDispatch(p, checkers)

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
	cd.AddUnits(p, p.Units())
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
		funcAdmit:   make([]bitset, len(p.All)),
		rootAdmit:   make([]bitset, len(p.All)),
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

// HasUnit reports whether the dispatch has u's admit tables (AddUnits),
// which it has only once u's bodies are built.
func (cd *CompiledDispatch) HasUnit(u *prog.Unit) bool { return cd.rootAdmit[u.Roots[0].Index] != nil }

// AddUnits computes the admit tables of the given units whose bodies
// are built (prog.Program.BuildUnits), skipping any it already has and
// any with a body not built yet. It writes only those units' entries,
// so engines running other units may read the dispatch meanwhile; two
// AddUnits calls must not overlap.
func (cd *CompiledDispatch) AddUnits(p *prog.Program, units []*prog.Unit) {
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
		cd.fillUnits(p, units, func(b *cfg.Block, bits bitset) { cd.admitSet(&feats, b, bits) })
	}
}

// fillUnits computes the given units' admit tables from a per-block
// admit function, which sets a block's bits in the zeroed set it is
// given: one walk per block, then the per-function and per-root (callee
// closure) unions. Every set is carved from one array and every
// function's block table from one slice, so the tables cost a handful
// of objects however many blocks the units have.
func (cd *CompiledDispatch) fillUnits(p *prog.Program, units []*prog.Unit, admit func(*cfg.Block, bitset)) {
	words := (len(cd.entries) + 63) / 64
	blocks, funcs, roots := 0, 0, 0
	for _, u := range units {
		for _, fn := range u.Funcs {
			blocks += len(fn.Graph.Blocks)
		}
		funcs += len(u.Funcs)
		roots += len(u.Roots)
	}
	slab := make([]uint64, (blocks+funcs+roots)*words)
	carve := func() bitset {
		s := bitset(slab[:words:words])
		slab = slab[words:]
		return s
	}
	tables := make([]bitset, blocks)
	for _, u := range units {
		for _, fn := range u.Funcs {
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
		}
	}

	// visited[fn.Index] is the ordinal (from 1) of the last root whose
	// closure walk reached fn; work is the walk's stack. A root's
	// closure stays inside its unit.
	visited := make([]int, len(p.All))
	var work []*prog.Function
	ri := 0
	for _, u := range units {
		for _, root := range u.Roots {
			ri++
			ra := carve()
			visited[root.Index] = ri
			work = append(work[:0], root)
			for len(work) > 0 {
				fn := work[len(work)-1]
				work = work[:len(work)-1]
				ra.or(cd.funcAdmit[fn.Index])
				for _, c := range fn.Callees {
					if visited[c.Index] != ri {
						visited[c.Index] = ri
						work = append(work, c)
					}
				}
			}
			cd.rootAdmit[root.Index] = ra
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
// never moves, and no action (report, mark, rule count) ever runs. A
// run rooted at a non-root stays conservative.
func (cd *CompiledDispatch) SkipRoot(ci int, root *prog.Function) bool {
	ra := cd.rootAdmit[root.Index]
	return ra != nil && !cd.initEOP[ci] && !ra.anyOf(cd.initEntries[ci])
}

// A Trigger is a callee name that an initial-global-state transition
// requires, and whether it requires it in a block with an assignment
// point as well: the name is nested under an assignment
// ("{ v = kmalloc(args) }"), not the call the point is.
type Trigger struct {
	Name   string
	Assign bool
}

// Triggers returns checker ci's triggers, each name once: an atom with
// a callee is admitted only in a block that calls that name
// (blockFeats.admits), and an assignment atom only in one with an
// assignment point too. So in a unit none of whose functions calls a
// trigger's name (beside an assignment, where it says so) no block
// admits an initial entry, and SkipRoot holds for each root: the
// argument needs no built body. ok is false when the triggers cannot
// decide that: some alternative of an initial transition names no
// callee, or one may match at end of path.
func (cd *CompiledDispatch) Triggers(ci int) (trs []Trigger, ok bool) {
	if cd.initEOP[ci] {
		return nil, false
	}
	for _, id := range cd.initEntries[ci] {
		for _, a := range cd.entries[id] {
			if a.callee == "" {
				return nil, false
			}
			assign := !a.ret && a.kind == kindAssign
			if i := slices.IndexFunc(trs, func(tr Trigger) bool { return tr.Name == a.callee }); i >= 0 {
				trs[i].Assign = trs[i].Assign && assign
			} else {
				trs = append(trs, Trigger{Name: a.callee, Assign: assign})
			}
		}
	}
	return trs, true
}

// UnitCalls lists, per unit of a program (by Unit.Index), the names its
// functions call directly, each once, and whether a function that calls
// the name assigns too (ListUnitCalls).
type UnitCalls [][]unitCall

type unitCall struct {
	name    string
	assigns bool
}

// ListUnitCalls lists what each unit of p calls, into one array, from
// pass 1's findings: a skimmed body's cc.BodySkim.Callees and Assigns,
// and for a body pass 1 parsed in place the call and assignment points
// of its CFG. TestSkimMatchesParse holds the two to each other, and
// blockFeats reads a block's features from the same points. It must
// run before any unit is retired: a retired body keeps neither.
func ListUnitCalls(p *prog.Program) UnitCalls {
	n := 0
	for _, fn := range p.All {
		n += len(fn.Decl.Skim.Callees)
	}
	calls := make([]unitCall, 0, n)
	units := p.Units()
	out := make(UnitCalls, len(units))
	for i, u := range units {
		start := len(calls)
		for _, fn := range u.Funcs {
			if fn.Graph == nil {
				for _, name := range fn.Decl.Skim.Callees {
					calls = append(calls, unitCall{name, fn.Decl.Skim.Assigns})
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
					if call, ok := pt.(*cc.CallExpr); ok {
						if name := cc.CalleeName(call); name != "" {
							calls = append(calls, unitCall{name, assigns})
						}
					}
				}
			}
		}
		// Each name once: sorted, a run of one name folds into its
		// first entry, which assigns if any of the run does.
		uc := calls[start:]
		slices.SortFunc(uc, func(a, b unitCall) int { return cmp.Compare(a.name, b.name) })
		k := 0
		for j := range uc {
			if k > 0 && uc[k-1].name == uc[j].name {
				uc[k-1].assigns = uc[k-1].assigns || uc[j].assigns
				continue
			}
			uc[k] = uc[j]
			k++
		}
		calls = calls[:start+k]
		out[i] = calls[start:len(calls):len(calls)]
	}
	return out
}

// Silent reports that unit u calls none of the triggers' names, beside
// an assignment where the trigger says so: the checker the triggers are
// of is a no-op over u, and SkipRoot holds for each of its roots.
func (uc UnitCalls) Silent(u *prog.Unit, trs []Trigger) bool {
	for _, c := range uc[u.Index] {
		for _, tr := range trs {
			if c.name == tr.Name && (c.assigns || !tr.Assign) {
				return false
			}
		}
	}
	return true
}
