package core

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/cc"
	"repro/internal/cfg"
	"repro/internal/fpp"
)

// edge is a directed summary edge between state tuples (§5.2).
// Transition edges start at a concrete tuple; add edges start at an
// "(g, v:t->unknown)" tuple. The tuples' identity lives in the
// interner, once; the edge holds their ids plus the material that is
// not identity and that applying a summary at a call boundary needs:
// both object expressions and the end tuple's provenance.
type edge struct {
	from, to         tid
	fromExpr, toExpr cc.Expr
	prov             *Instance
}

// edgeSet stores edges deduplicated by (from, to) id pair in one
// slice, grouped by start tuple: groups in ascending order of the
// start tuple's rendered key, insertion order within a group — the
// original string-keyed ordering, which all() therefore yields without
// sorting or copying. The zero value is ready and owns nothing; a set's
// first edge is carved from its funcInfo's slab, so the methods that
// add or compare keys are handed the owner.
type edgeSet struct {
	edges []edge
}

// group returns the index range of the edges starting at the tuple;
// when there are none, lo == hi is where the first one belongs. Ids
// and rendered keys correspond one to one, so the binary search only
// compares strings against other groups, rendering each key the first
// time it is compared (interner.key).
func (s *edgeSet) group(in *interner, id tid) (lo, hi int) {
	lo, hi = 0, len(s.edges)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if f := s.edges[m].from; f != id && in.key(f) < in.key(id) {
			lo = m + 1
		} else {
			hi = m
		}
	}
	for hi = lo; hi < len(s.edges) && s.edges[hi].from == id; hi++ {
	}
	return lo, hi
}

// add inserts the edge; it reports whether the edge was new. The first
// edge of a set lives in fi's slab at capacity one, so the second
// reallocates the set privately, as every later growth does.
func (s *edgeSet) add(fi *funcInfo, e edge) bool {
	if len(s.edges) == 0 {
		s.edges = carve(&fi.edgeSlab, 3*len(fi.blocks), e)
		return true
	}
	lo, hi := s.group(fi.in, e.from)
	for _, prev := range s.edges[lo:hi] {
		if prev.to == e.to {
			return false
		}
	}
	s.edges = slices.Insert(s.edges, hi, e)
	return true
}

// hasFrom reports whether any edge starts at the given tuple.
func (s *edgeSet) hasFrom(in *interner, t Tuple) bool { return len(s.from(in, t)) > 0 }

// from returns the edges starting at the tuple. The slice aliases the
// set: it is valid until the next add.
func (s *edgeSet) from(in *interner, t Tuple) []edge {
	if len(s.edges) == 0 {
		return nil
	}
	lo, hi := s.group(in, in.id(t))
	return s.edges[lo:hi]
}

// all returns every edge in the deterministic order above. The slice
// is the set's own: callers must not mutate it, nor add to this set
// while ranging over it.
func (s *edgeSet) all() []edge { return s.edges }

func (s *edgeSet) len() int { return len(s.edges) }

// blockInfo is the per-block cache: the block summary (transition +
// add edges, §5.2) and the suffix summary (§6.2).
type blockInfo struct {
	// The five edge sets are value fields: one blockInfo allocation
	// covers all of them.
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
	// paper's footnote-1 gap). It is the sorted set of
	// fingerprint<<32|tid pairs seen, fpCount the distinct fingerprints
	// among them; once fpCount passes fpCacheCap, coverage falls back to
	// tuple-only (the paper's behaviour) for good and fpSeen is dropped.
	// The ids belong to the function's fpp.Table (funcInfo.terms).
	fpSeen  []uint64
	fpCount int
	// fi is the function's funcInfo: the interner, and the slabs the
	// first edge of each set above and the first fpSeen key come from.
	fi *funcInfo
}

// fpCacheCap bounds the distinct FPP fingerprints tracked per block.
const fpCacheCap = 16

// coversUnder reports whether the tuple is covered for the given FPP
// fingerprint. With the cap exceeded (or no FPP facts at all, fp ==
// 0), coverage degrades to the tuple-only §5.2 condition.
func (b *blockInfo) coversUnder(t Tuple, fp uint32) bool {
	if fp == 0 || b.fpCount > fpCacheCap {
		return b.covers(t)
	}
	_, seen := slices.BinarySearch(b.fpSeen, uint64(fp)<<32|uint64(b.fi.in.id(t)))
	return seen
}

// noteSeen records that the tuple reached this block under the given
// fingerprint.
func (b *blockInfo) noteSeen(t Tuple, fp uint32) {
	if fp == 0 || b.fpCount > fpCacheCap {
		return
	}
	key := uint64(fp)<<32 | uint64(b.fi.in.id(t))
	i, seen := slices.BinarySearch(b.fpSeen, key)
	if seen {
		return
	}
	// The pairs of one fingerprint are adjacent, so a new fingerprint
	// shows in the neighbours.
	if (i == 0 || uint32(b.fpSeen[i-1]>>32) != fp) && (i == len(b.fpSeen) || uint32(b.fpSeen[i]>>32) != fp) {
		if b.fpCount++; b.fpCount > fpCacheCap {
			b.fpSeen = nil
			return
		}
	}
	if len(b.fpSeen) == 0 {
		b.fpSeen = carve(&b.fi.fpSlab, len(b.fi.blocks), key)
		return
	}
	b.fpSeen = slices.Insert(b.fpSeen, i, key)
}

// covers reports whether the block summary already contains the tuple
// as the start of some transition edge — the §5.2 cache condition.
func (b *blockInfo) covers(t Tuple) bool { return b.trans.hasFrom(b.fi.in, t) }

// funcInfo caches per-function analysis state: one blockInfo per
// basic block, indexed by cfg.Block.ID. The function summary (§6.2) is
// the entry block's suffix summary.
type funcInfo struct {
	blocks []blockInfo
	// Analyses counts full traversals started on this function's CFG
	// (experiment E2: memoization avoids re-traversal).
	Analyses int
	// terms interns the FPP terms and fingerprints of this function's
	// path environments (an environment never crosses a call boundary,
	// so neither do its ids). It shares the funcInfo's lifetime with
	// the fpSeen sets that hold its fingerprint ids: eviction drops
	// both together.
	terms fpp.Table
	in    *interner
	// edgeSlab and fpSlab are what is left of the chunks that the first
	// edge of every edge set and the first key of every fpSeen are carved
	// from: a traversed block owns three singleton sets, and one array
	// apiece was a tenth of the engine's objects. The slabs are the
	// funcInfo's, not the engine's, because edges hold AST nodes and
	// instances: eviction must drop them with the sets (stream.go). A
	// chunk stays whole until then even if its sets outgrow their slots.
	edgeSlab []edge
	fpSlab   []uint64
}

func newFuncInfo(g *cfg.Graph, in *interner) *funcInfo {
	fi := &funcInfo{blocks: make([]blockInfo, len(g.Blocks)), in: in}
	for i := range fi.blocks {
		fi.blocks[i].fi = fi
	}
	return fi
}

// slabChunk bounds one slab chunk, so that a long function that is
// barely entered does not pay for all of its blocks up front.
const slabChunk = 32

// carve cuts a one-element slice of capacity one off the slab and
// stores v in it. A used-up slab is replaced by a chunk of want
// elements, at most slabChunk.
func carve[T any](slab *[]T, want int, v T) []T {
	if len(*slab) == 0 {
		*slab = make([]T, min(max(want, 1), slabChunk))
	}
	s := (*slab)[:1:1]
	*slab = (*slab)[1:]
	s[0] = v
	return s
}

func (fi *funcInfo) info(b *cfg.Block) *blockInfo { return &fi.blocks[b.ID] }

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
// block on an abort. locals is the function's non-parameter locals set:
// suffix edges about objects that mention one are skipped because "the
// analysis would never use these edges" (Figure 5 caption).
func relax(backtrace []traceEntry, final *blockInfo, seedFinal bool, locals map[string]bool) {
	// Seed only at a true path end: "ep's suffix summary equals its
	// block summary" (§6.2) holds for the exit block alone. On a
	// cache-hit abort the hit block's suffix is already populated from
	// the earlier traversals that reached the exit — seeding its own
	// block summary there would fabricate path-to-exit edges that no
	// traversed path justifies.
	if seedFinal {
		seedSuffix(final, locals)
	}

	next := final
	for i := len(backtrace) - 1; i >= 0; i-- {
		cur := backtrace[i].info
		if !combineSuffix(cur, next, locals) {
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
func seedSuffix(bi *blockInfo, locals map[string]bool) {
	fi := bi.fi
	for _, e := range bi.gstate.all() {
		bi.sfxTrans.add(fi, e)
	}
	for _, e := range bi.trans.all() {
		if !fi.in.suffixSkip(e, locals) {
			bi.sfxTrans.add(fi, e)
		}
	}
	for _, e := range bi.adds.all() {
		if !fi.in.suffixSkip(e, locals) {
			bi.sfxAdds.add(fi, e)
		}
	}
}

// suffixSkip implements the suffix-summary omission rules: edges
// ending in stop are unnecessary ("the suffix summary intentionally
// omits edges that end in a tuple with the value stop"), and edges
// about function-local objects are never used by callers.
func (in *interner) suffixSkip(e edge, locals map[string]bool) bool {
	if in.tups[e.to].val == symStop {
		return true
	}
	return mentionsAny(e.fromExpr, locals) || mentionsAny(e.toExpr, locals)
}

// compose joins a block edge and a suffix edge that starts where it
// ends: the block edge's start, the suffix edge's end.
func compose(pe, sfx edge) edge {
	sfx.from, sfx.fromExpr = pe.from, pe.fromExpr
	return sfx
}

// combineSuffix merges next's suffix edges through cur's block
// summary into cur's suffix summary; it reports whether anything new
// was added.
func combineSuffix(cur, next *blockInfo, locals map[string]bool) bool {
	fi, in := cur.fi, cur.fi.in
	grew := false
	// On a loop cur can be next: range over next's edges as they stand,
	// not as cur's additions shift them.
	snapshot := func(edges []edge) []edge {
		if cur == next {
			return slices.Clone(edges)
		}
		return edges
	}
	// Suffix transition edges: compose with cur's transition or add
	// edges whose end tuple equals the suffix edge's start tuple.
	// Placeholder suffix edges compose through cur's global-instance
	// edges instead.
	for _, et := range snapshot(next.sfxTrans.all()) {
		if from := &in.tups[et.from]; from.obj == 0 {
			for _, ge := range cur.gstate.all() {
				if in.tups[ge.to].g == from.g && cur.sfxTrans.add(fi, compose(ge, et)) {
					grew = true
				}
			}
			continue
		}
		through := func(block, sfx *edgeSet) {
			for _, pe := range block.all() {
				if pe.to != et.from {
					continue
				}
				if ne := compose(pe, et); !in.suffixSkip(ne, locals) && sfx.add(fi, ne) {
					grew = true
				}
			}
		}
		through(&cur.trans, &cur.sfxTrans)
		through(&cur.adds, &cur.sfxAdds)
	}
	// Suffix add edges: the object was unknown throughout cur too, so
	// compose with cur's global-instance edges — the "(g,<>)->(g',<>)"
	// transitions every traversal records (§6.2).
	for _, ea := range snapshot(next.sfxAdds.all()) {
		from := in.tups[ea.from]
		for _, ge := range cur.gstate.all() {
			if in.tups[ge.to].g != from.g {
				continue
			}
			ne := ea
			ne.from = in.id(unknownTuple(in.tups[ge.from].g, from.v, from.obj))
			if !in.suffixSkip(ne, locals) && cur.sfxAdds.add(fi, ne) {
				grew = true
			}
		}
	}
	return grew
}

// FormatBlockSummary renders a block's summary edges in the Figure 5
// notation. Placeholder-only edges are omitted unless they are the
// only content ("Edges that start and end in a tuple containing the
// placeholder <> are omitted from the cache unless this tuple is the
// only element in the cache").
func formatEdges(in *interner, trans, adds *edgeSet) string {
	var parts []string
	render := func(e edge) string { return in.key(e.from) + " --> " + in.key(e.to) }
	for _, e := range trans.all() {
		if in.tups[e.from].obj == 0 && in.tups[e.to].obj == 0 {
			continue
		}
		parts = append(parts, render(e))
	}
	for _, e := range adds.all() {
		parts = append(parts, render(e))
	}
	if len(parts) == 0 {
		for _, e := range trans.all() {
			parts = append(parts, render(e))
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
	return formatEdges(en.intern, &bi.trans, &bi.adds)
}

// SuffixSummaryString renders the suffix summary (the middle field of
// each Figure 5 box).
func (en *Engine) SuffixSummaryString(fnName string, b *cfg.Block) string {
	fn := en.Prog.Lookup(fnName)
	if fn == nil {
		return ""
	}
	bi := en.funcInfo(fn).info(b)
	return formatEdges(en.intern, &bi.sfxTrans, &bi.sfxAdds)
}

// SupergraphString renders every block of a function with its block
// and suffix summaries, in the style of Figure 5.
func (en *Engine) SupergraphString(fnName string) string {
	fn := en.Prog.Lookup(fnName)
	if fn == nil || fn.Graph == nil {
		// Unknown function, or one whose body has been released
		// (DESIGN.md §12) — nothing renderable remains.
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
