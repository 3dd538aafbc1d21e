package core

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"repro/internal/cc"
	"repro/internal/cfg"
	"repro/internal/prog"
	"repro/internal/workload"
)

// refEdge is a summary edge by its tuples' names, as ExportSummaries
// writes them; refKey is its identity, the two rendered tuples.
type refEdge struct{ from, to TupleData }

func refKey(e refEdge) string { return oracleKey(e.from) + " --> " + oracleKey(e.to) }

// refSet is one suffix summary, transition and add edges apart.
type refSet struct{ trans, adds map[string]refEdge }

func newRefSet() refSet { return refSet{map[string]refEdge{}, map[string]refEdge{}} }

func refEdges(data []EdgeData) []refEdge {
	out := make([]refEdge, len(data))
	for i, d := range data {
		out[i] = refEdge{d.From, d.To}
	}
	return out
}

// referenceSuffixes recomputes one function's suffix summaries from its
// block summaries alone: the least fixpoint of
//
//	sfx(b) = blk(b) ∘ ⋃ sfx(s), s a successor traversed from b,
//
// seeded at every traversed exit block with its own block summary (§6.2:
// "ep's suffix summary equals its block summary"). A suffix omits edges
// that end in stop and edges about the function's non-parameter locals
// (Figure 5). A block edge composes with a suffix edge that starts where
// it ends; a suffix edge out of a placeholder composes through the
// block's global-instance edges into the same global state, and so does
// a suffix add edge, whose object was unknown throughout the block too.
// The order paths were explored in plays no part, which is what relax's
// incremental propagation is held to.
func referenceSuffixes(fn *prog.Function, fd FuncSummaryData, pairs map[[2]int]bool) map[int]refSet {
	type block struct{ trans, adds, gstate []refEdge }
	blk := map[int]block{}
	for _, bd := range fd.Blocks {
		blk[bd.Block] = block{refEdges(bd.Trans), refEdges(bd.Adds), refEdges(bd.GState)}
	}
	local := map[string]bool{}
	mentionsLocal := func(td TupleData) bool {
		if td.Obj == "" {
			return false
		}
		if hit, ok := local[td.Obj]; ok {
			return hit
		}
		e, err := cc.ParseExprString(td.Obj)
		local[td.Obj] = err == nil && mentions(e, func(id *cc.Ident) bool { return fn.Graph.Locals.HasNonParam(id.Name) })
		return local[td.Obj]
	}
	skip := func(e refEdge) bool { return e.to.Val == StopVal || mentionsLocal(e.from) || mentionsLocal(e.to) }

	sfx := map[int]refSet{}
	for _, b := range fn.Graph.Blocks {
		sfx[b.ID] = newRefSet()
	}
	grew := false
	put := func(m map[string]refEdge, e refEdge) {
		if k := refKey(e); !skip(e) && m[k] == (refEdge{}) {
			m[k] = e
			grew = true
		}
	}
	for _, b := range fn.Graph.Blocks {
		if bb, ok := blk[b.ID]; ok && b.Exit && len(bb.gstate) > 0 {
			for _, e := range bb.gstate {
				put(sfx[b.ID].trans, e)
			}
			for _, e := range bb.trans {
				put(sfx[b.ID].trans, e)
			}
			for _, e := range bb.adds {
				put(sfx[b.ID].adds, e)
			}
		}
	}
	for grew = true; grew; {
		grew = false
		for pair := range pairs {
			cur, next := blk[pair[0]], sfx[pair[1]]
			into := sfx[pair[0]]
			for _, et := range next.trans {
				if et.from.Obj == "" {
					for _, ge := range cur.gstate {
						if ge.to.G == et.from.G {
							put(into.trans, refEdge{ge.from, et.to})
						}
					}
					continue
				}
				for _, pe := range cur.trans {
					if oracleKey(pe.to) == oracleKey(et.from) {
						put(into.trans, refEdge{pe.from, et.to})
					}
				}
				for _, pe := range cur.adds {
					if oracleKey(pe.to) == oracleKey(et.from) {
						put(into.adds, refEdge{pe.from, et.to})
					}
				}
			}
			for _, ea := range next.adds {
				for _, ge := range cur.gstate {
					if ge.to.G == ea.from.G {
						from := TupleData{G: ge.from.G, Var: ea.from.Var, Obj: ea.from.Obj, Val: UnknownVal}
						put(into.adds, refEdge{from, ea.to})
					}
				}
			}
		}
	}
	return sfx
}

// suffixRefTrees are the programs the reference runs over.
func suffixRefTrees(t *testing.T) []digestTree {
	t.Helper()
	var trees []digestTree
	for _, dir := range []string{"corpus", "rootorder"} {
		paths, err := filepath.Glob(filepath.Join("../../testdata", dir, "*.c"))
		if err != nil || len(paths) == 0 {
			t.Fatalf("testdata/%s: %v, %d files", dir, err, len(paths))
		}
		for _, path := range paths {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			name := dir + "/" + filepath.Base(path)
			trees = append(trees, digestTree{name, map[string]string{filepath.Base(path): string(data)}})
		}
	}
	mixed, _ := workload.MixedTree(3, 12, 7)
	return append(trees, digestTree{"MixedTree(3,12,7)", mixed}, digestTree{"CallRichTree", workload.CallRichTree()})
}

// suffixKnownMisses lists, by tree and cache setting, the
// checker/function pairs whose suffix summaries relax leaves short of
// the reference. Both are relax's early stop ("Figure 6's early stop"),
// which ends the walk back at the first block whose suffix did not grow
// although a block below it on the backtrace may still compose with that
// suffix. A miss anywhere else is a new finding, not an entry here.
var suffixKnownMisses = func() map[string][]string {
	// strutil.c's loops: the exit path's backtrace holds the loop head
	// twice, its later copy grows first, and the walk stops at the
	// earlier one, so the blocks above the loop, the entry among them,
	// never learn that the function returns.
	var loops []string
	for _, c := range []string{"leak_checker", "null_checker", "sizeof_checker"} {
		loops = append(loops, c+"/str_dup", c+"/str_len")
	}
	return map[string][]string{
		// Finding 4 (B), ROADMAP 1(a): a second traversal of leaf adds a
		// block edge that the stop leaves uncomposed.
		"rootorder/finding4.c FunctionCache=false": {"free_checker/leaf"},
		"corpus/strutil.c FunctionCache=true":      loops,
		"corpus/strutil.c FunctionCache=false":     loops,
	}
}()

// TestSuffixSummariesMatchReference holds every suffix summary relax
// leaves, under every bundled checker, to referenceSuffixes over the
// successor pairs the run actually followed (Engine.traversed), with the
// function cache on and off: off, a callee is traversed again and its
// block summaries grow after its suffixes were relaxed, which is where
// finding 4 (B) shows. The block cache stays on; without it the trees'
// paths are exponential. relax may never hold an edge the reference
// does not; the functions where it holds fewer must be exactly
// suffixKnownMisses.
func TestSuffixSummariesMatchReference(t *testing.T) {
	checked := 0
	for _, tree := range suffixRefTrees(t) {
		for _, fc := range []bool{true, false} {
			opts := DefaultOptions()
			opts.FunctionCache = fc
			setting := fmt.Sprintf("%s FunctionCache=%v", tree.name, fc)
			misses, n := suffixMisses(t, setting, tree.srcs, opts)
			checked += n
			if want := suffixKnownMisses[setting]; !reflect.DeepEqual(misses, want) {
				t.Errorf("%s: relax leaves short the suffixes of %v, known misses are %v", setting, misses, want)
			}
		}
	}
	if checked == 0 {
		t.Fatal("no function was traversed; the comparison is vacuous")
	}
	t.Logf("%d checker/function suffix summaries checked", checked)
}

// suffixMisses runs every bundled checker over the tree as an mc run
// does, compares each traversed function's suffix summaries with the
// reference, and returns the checker/function pairs relax left short,
// sorted, and how many it compared. An edge the reference lacks fails
// the test at once.
func suffixMisses(t *testing.T, setting string, srcs map[string]string, opts Options) (misses []string, checked int) {
	suite := bundledSuite(t)
	p := buildProg(t, srcs)
	shared := NewShared()
	shared.Mark("net_wait", "blocking")
	cd := CompileDispatch(p, suite)
	owner := map[*cfg.Block]*prog.Function{}
	for _, fn := range p.All {
		if fn.Graph != nil {
			for _, b := range fn.Graph.Blocks {
				owner[b] = fn
			}
		}
	}
	for i, c := range suite {
		en := NewEngineShared(p, c, opts, shared)
		en.SetCompiled(cd, i)
		pairs := map[*prog.Function]map[[2]int]bool{}
		en.traversed = func(from, to *cfg.Block) {
			fn := owner[from]
			if owner[to] != fn {
				t.Fatalf("%s: a pair crosses functions: %s B%d -> %s B%d", setting, fn.Name, from.ID, owner[to].Name, to.ID)
			}
			if pairs[fn] == nil {
				pairs[fn] = map[[2]int]bool{}
			}
			pairs[fn][[2]int{from.ID, to.ID}] = true
		}
		en.RunContext(context.Background())
		sd := en.ExportSummaries(p.All)
		for j, fn := range p.All {
			fd := sd.Funcs[j]
			if len(fd.Blocks) == 0 {
				continue
			}
			checked++
			ref := referenceSuffixes(fn, fd, pairs[fn])
			short := false
			for _, bd := range fd.Blocks {
				for _, side := range []struct {
					name string
					got  []EdgeData
					want map[string]refEdge
				}{{"trans", bd.SfxTrans, ref[bd.Block].trans}, {"adds", bd.SfxAdds, ref[bd.Block].adds}} {
					got := map[string]bool{}
					for _, e := range refEdges(side.got) {
						got[refKey(e)] = true
						if side.want[refKey(e)] == (refEdge{}) {
							t.Errorf("%s %s/%s B%d: suffix %s holds %s, which the reference does not",
								setting, c.Name, fn.Name, bd.Block, side.name, refKey(e))
						}
					}
					for k := range side.want {
						if !got[k] {
							short = true
							t.Logf("%s %s/%s B%d: suffix %s lacks %s", setting, c.Name, fn.Name, bd.Block, side.name, k)
						}
					}
				}
			}
			if short {
				misses = append(misses, c.Name+"/"+fn.Name)
			}
		}
	}
	sort.Strings(misses)
	return misses, checked
}
