package core

// Incremental-analysis entry points (DESIGN.md §8): per-root report
// segmentation, the cut at a unit boundary, the mark log,
// annotation-store snapshots, and summary serialization. The cache
// layer (internal/cache, mc) composes the first four: a unit's record
// stores the report segments its roots produced and what the engine
// accumulated while running them, so a warm run can replay the unit
// without traversing it. Summary serialization has no product caller
// left (see its section below).

import (
	"sort"
	"strings"

	"repro/internal/cc"
	"repro/internal/prog"
	"repro/internal/report"
)

// RootRun is one call-graph root's traversal output: the reports the
// DFS starting at that root added (deduplicated against everything the
// engine emitted earlier, exactly as RunContext's loop would). A root
// that added none has no RootRun (RunRootsContext).
type RootRun struct {
	Root    *prog.Function
	Reports []*report.Report
}

// UnitCut is what an engine accumulated while running one unit's roots:
// the part of a unit record that is not a per-root report segment.
// Complete is the storage rule's input — false when a budget, a cap or
// a cancellation truncated these roots, or the checker has panicked.
type UnitCut struct {
	Stats        Stats
	Rules        map[string]*RuleCount
	Marks        []MarkEvent
	Degradations []DegradeEvent
	Complete     bool
}

// CutUnit hands over what the engine accumulated since the previous cut
// (or since it was built) and resets it, so one engine run over several
// units in turn yields, per unit, what a fresh engine would have.
// Everything the engine keeps across the cut is either keyed by
// function — summaries and fpSeen sets in funcInfo, and the report
// set's dedup keys, which carry function and position — and units
// share no function, or is emptied when the unit retires — the FPP
// table, whose ids then restart at 0 as a fresh engine's do — or is
// identity only (interned tuple ids, synonym group numbers). Budgets are per root already. Failure and
// cancellation are not reset: they stop the engine for good, and every
// later cut is incomplete.
func (en *Engine) CutUnit() UnitCut {
	cut := UnitCut{
		Stats: en.Stats, Rules: en.RuleStats, Marks: en.MarkLog, Degradations: en.Degradations,
		Complete: len(en.Degradations) == 0 && en.Failure == nil && !en.cancelled,
	}
	en.Stats = Stats{Analyses: map[string]int{}}
	en.RuleStats = map[string]*RuleCount{}
	en.MarkLog, en.Degradations, en.degradeSeen = nil, nil, nil
	return cut
}

// MarkEvent records one composition mark (§3.2) emitted during
// analysis, in emission order. Replaying a cached unit re-applies its
// marks so later phases observe the same annotation store.
type MarkEvent struct {
	Name string
	Key  string
}

// Events lists the annotation store as sorted MarkEvents — the wire
// form of the marks visible at a phase barrier, applied on a fleet
// worker before it runs a unit (DESIGN.md §15). Marks are an
// idempotent boolean set, so sorted re-application reconstructs the
// same store regardless of original emission order. Must not be
// called while engines are running.
func (s *Shared) Events() []MarkEvent {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var evs []MarkEvent
	for name, keys := range s.FnMarks {
		for k := range keys {
			evs = append(evs, MarkEvent{Name: name, Key: k})
		}
	}
	sort.Slice(evs, func(i, j int) bool {
		if evs[i].Name != evs[j].Name {
			return evs[i].Name < evs[j].Name
		}
		return evs[i].Key < evs[j].Key
	})
	return evs
}

// Snapshot renders Events as "name|key" lines. The incremental cache
// folds it into each phase's cache key: a unit analyzed under different
// visible marks is a different computation. Must not be called while
// engines are running.
func (s *Shared) Snapshot() string {
	evs := s.Events()
	lines := make([]string, len(evs))
	for i, ev := range evs {
		lines[i] = ev.Name + "|" + ev.Key
	}
	return strings.Join(lines, "\n")
}

// ---------------------------------------------------------------------------
// Summary serialization
//
// A vestige: the unit records (PR 17) and the streaming spill (PR 18)
// that carried serialized summaries are gone, and no product code calls
// ExportSummaries or ImportSummaries. The section stays only because
// the frozen benchmark/layers.go (lines 459-462, 507-512, 537-539) still
// models both as export + import; it goes with the benchmark PR that
// drops that model (ROADMAP item 2).
// ---------------------------------------------------------------------------

// TupleData is a serialized state tuple, its symbols by name: a record
// may come from an engine that numbered them differently, or from
// another checker. ObjExpr is rendered through cc.ExprString and
// reparsed on import; Prov (per-path provenance) is deliberately
// dropped — imported summaries serve display, never as live traversal
// caches, so reconstruction material for report emission is not
// needed.
type TupleData struct {
	G       string `json:"g"`
	Var     string `json:"var,omitempty"`
	Obj     string `json:"obj,omitempty"`
	Val     string `json:"val,omitempty"`
	Data    int64  `json:"data,omitempty"`
	ObjExpr string `json:"expr,omitempty"`
}

// EdgeData is a serialized summary edge (§5.2).
type EdgeData struct {
	From TupleData `json:"from"`
	To   TupleData `json:"to"`
}

// BlockSummaryData serializes one block's caches: the block summary,
// add edges, global-instance edges, and the suffix summary (§6.2).
// The FPP fingerprint refinement (fpSeen) is traversal-internal and
// not serialized.
type BlockSummaryData struct {
	Block    int        `json:"block"`
	Trans    []EdgeData `json:"trans,omitempty"`
	Adds     []EdgeData `json:"adds,omitempty"`
	GState   []EdgeData `json:"gstate,omitempty"`
	SfxTrans []EdgeData `json:"sfx_trans,omitempty"`
	SfxAdds  []EdgeData `json:"sfx_adds,omitempty"`
}

// FuncSummaryData serializes one function's analysis cache. Func is
// the prog.FuncID.
type FuncSummaryData struct {
	Func     string             `json:"func"`
	Analyses int                `json:"analyses,omitempty"`
	Blocks   []BlockSummaryData `json:"blocks,omitempty"`
}

// SummaryData is the serializable portion of an engine's per-function
// caches for a set of functions.
type SummaryData struct {
	Funcs []FuncSummaryData `json:"funcs,omitempty"`
}

func (in *interner) tupleData(t Tuple) TupleData {
	td := TupleData{G: in.vals.name(t.g), Var: in.vars.name(t.v), Obj: in.objs.name(t.obj), Val: in.vals.name(t.val), Data: t.data}
	if t.ObjExpr != nil {
		td.ObjExpr = cc.ExprString(t.ObjExpr)
	}
	return td
}

// tupleOf numbers a serialized tuple's symbols. One the checker never
// declared gets a fresh number (names.id), so it can collide with none
// it did.
func (in *interner) tupleOf(td TupleData) Tuple {
	t := Tuple{tupleKey: tupleKey{
		g: in.vals.id(td.G), v: in.vars.id(td.Var), val: in.vals.id(td.Val), obj: in.objs.id(td.Obj), data: td.Data,
	}}
	if td.ObjExpr != "" {
		if e, err := cc.ParseExprString(td.ObjExpr); err == nil {
			t.ObjExpr = e
		}
	}
	return t
}

func edgeData(in *interner, s *edgeSet) []EdgeData {
	edges := s.all()
	if len(edges) == 0 {
		return nil
	}
	out := make([]EdgeData, len(edges))
	for i, e := range edges {
		out[i] = EdgeData{From: in.tupleData(in.tuple(e.from)), To: in.tupleData(in.tuple(e.to))}
	}
	return out
}

func importEdges(fi *funcInfo, s *edgeSet, data []EdgeData) {
	in := &fi.en.intern
	for _, ed := range data {
		from, to := in.tupleOf(ed.From), in.tupleOf(ed.To)
		s.add(fi, in.edge(&from, &to))
	}
}

// ExportSummaries serializes the engine's per-function caches for the
// given functions (blocks in CFG order, edges in deterministic
// edgeSet order). Functions the engine never touched export with no
// blocks.
func (en *Engine) ExportSummaries(fns []*prog.Function) *SummaryData {
	sd := &SummaryData{}
	for _, fn := range fns {
		fd := FuncSummaryData{Func: prog.FuncID(fn)}
		if fi := en.funcs[fn.Index]; fi != nil && fn.Graph != nil {
			fd.Analyses = fi.Analyses
			for _, b := range fn.Graph.Blocks {
				bi := fi.info(b)
				bd := BlockSummaryData{
					Block:    int(b.ID),
					Trans:    edgeData(&en.intern, &bi.trans),
					Adds:     edgeData(&en.intern, &bi.adds),
					GState:   edgeData(&en.intern, &bi.gstate),
					SfxTrans: edgeData(&en.intern, &bi.sfxTrans),
					SfxAdds:  edgeData(&en.intern, &bi.sfxAdds),
				}
				if bd.Trans == nil && bd.Adds == nil && bd.GState == nil &&
					bd.SfxTrans == nil && bd.SfxAdds == nil {
					continue
				}
				fd.Blocks = append(fd.Blocks, bd)
			}
		}
		sd.Funcs = append(sd.Funcs, fd)
	}
	return sd
}

// ImportSummaries loads serialized summaries into the engine's
// per-function caches, keyed by FuncID against the engine's program
// (prog.FuncByID: the index is built once per program, not per call).
// Imported state is for inspection (supergraph rendering) — it never
// feeds a live traversal, which would perturb path exploration relative
// to a cold run.
func (en *Engine) ImportSummaries(sd *SummaryData) {
	for _, fd := range sd.Funcs {
		fn := en.Prog.FuncByID(fd.Func)
		if fn == nil || fn.Graph == nil {
			// Unknown function, or one whose body has been
			// released: without its CFG the block ids cannot be mapped
			// back.
			continue
		}
		fi := en.funcInfo(fn)
		fi.Analyses += fd.Analyses
		if len(fd.Blocks) == 0 {
			continue
		}
		for _, bd := range fd.Blocks {
			if bd.Block < 0 || bd.Block >= len(fi.blocks) {
				continue
			}
			bi := &fi.blocks[bd.Block]
			importEdges(fi, &bi.trans, bd.Trans)
			importEdges(fi, &bi.adds, bd.Adds)
			importEdges(fi, &bi.gstate, bd.GState)
			importEdges(fi, &bi.sfxTrans, bd.SfxTrans)
			importEdges(fi, &bi.sfxAdds, bd.SfxAdds)
		}
	}
}
