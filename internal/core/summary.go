package core

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/cc"
	"repro/internal/cfg"
)

// edge is a directed summary edge between state tuples (§5.2).
// Transition edges start at a concrete tuple; add edges start at an
// "(g, v:t->unknown)" tuple. fromID/toID are the interned tuple ids,
// populated when the edge is stored in an edgeSet.
type edge struct {
	From, To     Tuple
	fromID, toID tid
}

// edgeSet stores edges indexed by interned start-tuple id,
// deduplicated by (from, to) id pair. Identity and deterministic
// ordering follow the rendered Key() strings exactly (the interner
// assigns one id per distinct rendered string), so replacing the
// string keys with ids cannot change what is stored or the order
// all() yields.
type edgeSet struct {
	in     *interner
	byFrom map[tid][]edge
	count  int
	// sorted caches all()'s deterministic ordering between adds; the
	// relaxation loop calls all() far more often than it adds.
	sorted []edge
	dirty  bool
}

func newEdgeSet(in *interner) *edgeSet { return &edgeSet{in: in} }

// add inserts the edge; it reports whether the edge was new. Dedup
// scans the byFrom bucket (buckets hold a handful of edges). The index
// map is created on the first insert: most blocks of most checkers
// never store an edge (their patterns never fire there), so eager maps
// are pure overhead.
func (s *edgeSet) add(e edge) bool {
	e.fromID = s.in.id(e.From)
	e.toID = s.in.id(e.To)
	for _, prev := range s.byFrom[e.fromID] {
		if prev.toID == e.toID {
			return false
		}
	}
	if s.byFrom == nil {
		s.byFrom = map[tid][]edge{}
	}
	s.byFrom[e.fromID] = append(s.byFrom[e.fromID], e)
	s.count++
	s.dirty = true
	return true
}

// hasFrom reports whether any edge starts at the given tuple.
func (s *edgeSet) hasFrom(t Tuple) bool { return len(s.byFrom[s.in.id(t)]) > 0 }

// from returns the edges starting at the tuple.
func (s *edgeSet) from(t Tuple) []edge { return s.byFrom[s.in.id(t)] }

// all returns every edge in deterministic order (ascending rendered
// start-tuple key, insertion order within a key — the original
// string-keyed ordering). The slice is cached until the next add;
// callers must not mutate it.
func (s *edgeSet) all() []edge {
	if !s.dirty {
		return s.sorted
	}
	if len(s.byFrom) == 1 {
		// Single start tuple — the common shape — needs no id slice
		// and no sort; the bucket is already in insertion order.
		for _, edges := range s.byFrom {
			s.sorted = append([]edge(nil), edges...)
		}
		s.dirty = false
		return s.sorted
	}
	ids := make([]tid, 0, len(s.byFrom))
	n := 0
	for id, edges := range s.byFrom {
		ids = append(ids, id)
		n += len(edges)
	}
	sort.Slice(ids, func(i, j int) bool { return s.in.key(ids[i]) < s.in.key(ids[j]) })
	out := make([]edge, 0, n)
	for _, id := range ids {
		out = append(out, s.byFrom[id]...)
	}
	s.sorted = out
	s.dirty = false
	return out
}

func (s *edgeSet) len() int { return s.count }

// blockInfo is the per-block cache: the block summary (transition +
// add edges, §5.2) and the suffix summary (§6.2).
type blockInfo struct {
	// The five edge sets are value fields: one blockInfo allocation
	// covers all of them (they used to be five separate allocations
	// per block per engine, a top allocation site).
	trans edgeSet
	adds  edgeSet
	// gstate records the "(g,<>) -> (g',<>)" global-instance edge of
	// every traversal (§6.2 relaxes add edges through it). It is kept
	// separate from trans because the placeholder tuple participates
	// in cache subsumption only when it actually was the extension
	// state.
	gstate edgeSet
	// Suffix summaries: edges from this block's entry to the
	// function's exit.
	sfxTrans edgeSet
	sfxAdds  edgeSet
	// fpSeen refines cache coverage by the FPP fact fingerprint at
	// block entry: a tuple only counts as covered under the same
	// facts, so pruning decisions downstream stay consistent (the
	// paper's footnote-1 gap). Bounded by fpCacheCap; past the cap
	// coverage falls back to tuple-only (the paper's behaviour).
	fpSeen map[string]map[tid]bool
	in     *interner
	// feats caches the block's syntactic features for the transition
	// pre-filter (see prefilter.go); nil until first traversal.
	feats *blockFeats
	// fire caches, per state ref, whether any of the ref's
	// transitions can possibly fire at a point of this block.
	fire map[stateRefKey]bool
	// points caches the block's ExecOrder program-point expansion (a
	// pure function of the block). pointsOK distinguishes an empty
	// expansion from "not computed yet".
	points   []cc.Expr
	pointsOK bool
}

func newBlockInfo(in *interner) *blockInfo {
	bi := &blockInfo{in: in}
	for _, s := range []*edgeSet{&bi.trans, &bi.adds, &bi.gstate, &bi.sfxTrans, &bi.sfxAdds} {
		s.in = in
	}
	return bi
}

// fpCacheCap bounds the distinct FPP fingerprints tracked per block.
const fpCacheCap = 16

// coversUnder reports whether the tuple is covered for the given FPP
// fingerprint. With the cap exceeded (or no FPP facts at all, fp ==
// ""), coverage degrades to the tuple-only §5.2 condition.
func (b *blockInfo) coversUnder(t Tuple, fp string) bool {
	if fp == "" || len(b.fpSeen) > fpCacheCap {
		return b.covers(t)
	}
	return b.fpSeen[fp][b.in.id(t)]
}

// noteSeen records that the tuple reached this block under the given
// fingerprint.
func (b *blockInfo) noteSeen(t Tuple, fp string) {
	if fp == "" {
		return
	}
	if b.fpSeen == nil {
		b.fpSeen = map[string]map[tid]bool{}
	}
	m := b.fpSeen[fp]
	if m == nil {
		m = map[tid]bool{}
		b.fpSeen[fp] = m
	}
	m[b.in.id(t)] = true
}

// covers reports whether the block summary already contains the tuple
// as the start of some transition edge — the §5.2 cache condition.
func (b *blockInfo) covers(t Tuple) bool { return b.trans.hasFrom(t) }

// funcInfo caches per-function analysis state: one blockInfo per
// basic block. The function summary (§6.2) is the entry block's
// suffix summary.
type funcInfo struct {
	blocks map[*cfg.Block]*blockInfo
	in     *interner
	// Analyses counts full traversals started on this function's CFG
	// (experiment E2: memoization avoids re-traversal).
	Analyses int
	// pre memoizes syntactic match results per (transition, program
	// point): the path-independent half of a pattern match, shared
	// across every path and instance that reaches the point
	// (DESIGN.md §10).
	pre map[preKey]preVal
	// nonParam and localOmit memoize the function's scope filters:
	// the non-parameter locals set and the suffix-summary omission
	// predicate built from it (both were rebuilt per use before).
	nonParam  map[string]bool
	localOmit func(Tuple) bool
}

func newFuncInfo(g *cfg.Graph, in *interner) *funcInfo {
	fi := &funcInfo{blocks: map[*cfg.Block]*blockInfo{}, in: in, pre: map[preKey]preVal{}}
	if g == nil {
		// Released AST (streaming mode): the shell still accepts
		// reloaded summaries via info(), keyed by whatever *cfg.Block
		// pointers the caller holds.
		return fi
	}
	for _, b := range g.Blocks {
		fi.blocks[b] = newBlockInfo(in)
	}
	return fi
}

func (fi *funcInfo) info(b *cfg.Block) *blockInfo {
	bi, ok := fi.blocks[b]
	if !ok {
		bi = newBlockInfo(fi.in)
		fi.blocks[b] = bi
	}
	return bi
}

// summaryOf returns the function summary: the suffix summary of the
// entry block.
func (fi *funcInfo) summaryOf(g *cfg.Graph) *blockInfo { return fi.info(g.Entry) }

// traceEntry records one block traversal on the current path: the
// edges generated during that traversal. relax composes these
// backwards into suffix summaries (Figure 6).
type traceEntry struct {
	block *cfg.Block
	info  *blockInfo
}

// relax propagates suffix edges backwards along the just-finished
// path (Figure 6). final is the block whose suffix summary seeds the
// propagation: the exit block at a normal path end, or the cache-hit
// block on an abort. localOmit reports tuples whose objects are
// function-local, whose suffix edges should be skipped because "the
// analysis would never use these edges" (Figure 5 caption).
func relax(backtrace []traceEntry, final *blockInfo, seedFinal bool, localOmit func(t Tuple) bool) {
	// Seed only at a true path end: "ep's suffix summary equals its
	// block summary" (§6.2) holds for the exit block alone. On a
	// cache-hit abort the hit block's suffix is already populated from
	// the earlier traversals that reached the exit — seeding its own
	// block summary there would fabricate path-to-exit edges that no
	// traversed path justifies.
	if seedFinal {
		seedSuffix(final, localOmit)
	}

	next := final
	for i := len(backtrace) - 1; i >= 0; i-- {
		cur := backtrace[i].info
		if !combineSuffix(cur, next, localOmit) {
			// No new edges propagated; earlier blocks are already
			// up to date (Figure 6's early stop).
			break
		}
		next = cur
	}
}

// seedSuffix copies a block's own summary edges into its suffix
// summary (dropping stop-ending edges and local objects). Global
// instance edges always seed: they carry the reachable exit gstates
// that function-summary application reads.
func seedSuffix(bi *blockInfo, localOmit func(Tuple) bool) {
	for _, e := range bi.gstate.all() {
		bi.sfxTrans.add(e)
	}
	for _, e := range bi.trans.all() {
		if suffixSkip(e, localOmit) {
			continue
		}
		bi.sfxTrans.add(e)
	}
	for _, e := range bi.adds.all() {
		if suffixSkip(e, localOmit) {
			continue
		}
		bi.sfxAdds.add(e)
	}
}

// suffixSkip implements the suffix-summary omission rules: edges
// ending in stop are unnecessary ("the suffix summary intentionally
// omits edges that end in a tuple with the value stop"), and edges
// about function-local objects are never used by callers.
func suffixSkip(e edge, localOmit func(Tuple) bool) bool {
	if strings.HasPrefix(e.To.Val, StopVal) {
		return true
	}
	if localOmit != nil {
		if e.From.Obj != "" && localOmit(e.From) {
			return true
		}
		if e.To.Obj != "" && localOmit(e.To) {
			return true
		}
	}
	return false
}

// StopVal is the stop sink's value string.
const StopVal = "stop"

// combineSuffix merges next's suffix edges through cur's block
// summary into cur's suffix summary; it reports whether anything new
// was added.
func combineSuffix(cur, next *blockInfo, localOmit func(Tuple) bool) bool {
	grew := false
	// Suffix transition edges: compose with cur's transition or add
	// edges whose end tuple equals the suffix edge's start tuple.
	// Placeholder suffix edges compose through cur's global-instance
	// edges instead.
	for _, et := range next.sfxTrans.all() {
		if et.From.IsPlaceholder() {
			for _, ge := range cur.gstate.all() {
				if ge.To.G != et.From.G {
					continue
				}
				ne := edge{From: ge.From, To: et.To}
				if cur.sfxTrans.add(ne) {
					grew = true
				}
			}
			continue
		}
		for _, pe := range edgesEndingAt(&cur.trans, et.From) {
			ne := edge{From: pe.From, To: et.To}
			if suffixSkip(ne, localOmit) {
				continue
			}
			if cur.sfxTrans.add(ne) {
				grew = true
			}
		}
		for _, pe := range edgesEndingAt(&cur.adds, et.From) {
			ne := edge{From: pe.From, To: et.To}
			if suffixSkip(ne, localOmit) {
				continue
			}
			if cur.sfxAdds.add(ne) {
				grew = true
			}
		}
	}
	// Suffix add edges: the object was unknown throughout cur too, so
	// compose with cur's global-instance edges — the "(g,<>)->(g',<>)"
	// transitions every traversal records (§6.2).
	for _, ea := range next.sfxAdds.all() {
		for _, ge := range cur.gstate.all() {
			if ge.To.G != ea.From.G {
				continue
			}
			ne := edge{From: unknownTuple(ge.From.G, ea.From.Var, ea.From.Obj), To: ea.To}
			ne.From.ObjExpr = ea.From.ObjExpr
			if suffixSkip(ne, localOmit) {
				continue
			}
			if cur.sfxAdds.add(ne) {
				grew = true
			}
		}
	}
	return grew
}

// edgesEndingAt returns the edges in s whose end tuple equals t.
func edgesEndingAt(s *edgeSet, t Tuple) []edge {
	id := s.in.id(t)
	var out []edge
	for _, edges := range s.byFrom {
		for _, e := range edges {
			if e.toID == id {
				out = append(out, e)
			}
		}
	}
	return out
}

// FormatBlockSummary renders a block's summary edges in the Figure 5
// notation. Placeholder-only edges are omitted unless they are the
// only content ("Edges that start and end in a tuple containing the
// placeholder <> are omitted from the cache unless this tuple is the
// only element in the cache").
func formatEdges(trans, adds *edgeSet) string {
	var parts []string
	for _, e := range trans.all() {
		if e.From.IsPlaceholder() && e.To.IsPlaceholder() {
			continue
		}
		parts = append(parts, e.From.Key()+" --> "+e.To.Key())
	}
	for _, e := range adds.all() {
		parts = append(parts, e.From.Key()+" --> "+e.To.Key())
	}
	if len(parts) == 0 {
		for _, e := range trans.all() {
			parts = append(parts, e.From.Key()+" --> "+e.To.Key())
		}
	}
	sort.Strings(parts)
	return strings.Join(parts, ", ")
}

// BlockSummaryString renders the block summary of block b in function
// f (the top field of each Figure 5 box).
func (en *Engine) BlockSummaryString(fnName string, b *cfg.Block) string {
	fn := en.Prog.Lookup(fnName)
	if fn == nil {
		return ""
	}
	bi := en.funcInfo(fn).info(b)
	return formatEdges(&bi.trans, &bi.adds)
}

// SuffixSummaryString renders the suffix summary (the middle field of
// each Figure 5 box).
func (en *Engine) SuffixSummaryString(fnName string, b *cfg.Block) string {
	fn := en.Prog.Lookup(fnName)
	if fn == nil {
		return ""
	}
	bi := en.funcInfo(fn).info(b)
	return formatEdges(&bi.sfxTrans, &bi.sfxAdds)
}

// SupergraphString renders every block of a function with its block
// and suffix summaries, in the style of Figure 5.
func (en *Engine) SupergraphString(fnName string) string {
	fn := en.Prog.Lookup(fnName)
	if fn == nil || fn.Graph == nil {
		// Unknown function, or one whose AST the streaming mode
		// released (DESIGN.md §12) — nothing renderable remains.
		return ""
	}
	var sb strings.Builder
	for _, b := range fn.Graph.Blocks {
		fmt.Fprintf(&sb, "B%d: %s\n", b.ID, b.Comment)
		fmt.Fprintf(&sb, "  block:  %s\n", en.BlockSummaryString(fnName, b))
		fmt.Fprintf(&sb, "  suffix: %s\n", en.SuffixSummaryString(fnName, b))
	}
	return sb.String()
}
