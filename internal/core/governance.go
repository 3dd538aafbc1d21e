package core

// Resource governance and fault isolation (DESIGN.md §9). The paper's
// xgcc bounds path exploration structurally (block summaries, relax);
// this layer adds operational bounds for service deployments: a
// context threaded into the per-path DFS so traversals are cancellable
// and deadline-bounded mid-flight, per-path and per-function work
// budgets with structured degradation records, and per-checker panic
// containment so a crashing metal action or Go callout becomes a
// diagnostic instead of a process death.

import (
	"context"
	"fmt"
	"runtime/debug"
	"time"

	"repro/internal/cfg"
	"repro/internal/prog"
	"repro/internal/report"
)

// Budgets bounds traversal work. Zero fields mean unlimited. Tripping
// a budget, like hitting a cap (maxCallDepth, maxPartitions), truncates
// exploration — the engine keeps running and records a DegradeEvent —
// so results become approximate (§7 unsoundness, deliberately).
type Budgets struct {
	// PathSteps caps program points visited along one DFS path
	// (checked at block entry; the path is truncated past the cap).
	PathSteps int64
	// FuncBlocks caps block traversals per root analysis; past it the
	// rest of that root's exploration is abandoned.
	FuncBlocks int64
	// FuncTime caps wall-clock per root analysis. Checked on the same
	// amortized poll as context cancellation, so enforcement lags by
	// up to ctxPollInterval blocks.
	FuncTime time.Duration
	// InstanceOps caps instance-match operations per root analysis —
	// the live-instance count summed over visited program points. This
	// is the cost dimension block and step budgets cannot see: a
	// checker that tracks an instance per expression keeps block
	// counts flat (instances walk together, §5.2 independence) while
	// per-point work goes quadratic. Checked at block entry like
	// FuncBlocks.
	InstanceOps int64
}

// Active reports whether any budget is set.
func (b Budgets) Active() bool { return b != Budgets{} }

// DegradeKind classifies what truncated an analysis.
type DegradeKind string

const (
	// DegradePathSteps: a path hit Budgets.PathSteps and was cut.
	DegradePathSteps DegradeKind = "path-steps"
	// DegradeFuncBlocks: a root analysis hit Budgets.FuncBlocks.
	DegradeFuncBlocks DegradeKind = "func-blocks"
	// DegradeFuncTime: a root analysis hit Budgets.FuncTime.
	DegradeFuncTime DegradeKind = "func-time"
	// DegradeInstanceOps: a root analysis hit Budgets.InstanceOps.
	DegradeInstanceOps DegradeKind = "instance-ops"
	// DegradeCancelled: the run's context was cancelled or its
	// deadline expired mid-traversal.
	DegradeCancelled DegradeKind = "cancelled"
	// DegradeCallDepth: a call maxCallDepth below the root was not followed.
	DegradeCallDepth DegradeKind = "call-depth"
	// DegradePartitions: exit states past maxPartitions were dropped.
	DegradePartitions DegradeKind = "partitions"
)

// DegradeEvent records one truncation: which bound fired, under which
// checker, while which root function was being analyzed. Events are
// deduplicated per (kind, function).
type DegradeEvent struct {
	Kind    DegradeKind `json:"kind"`
	Checker string      `json:"checker"`
	Func    string      `json:"func"`
	Detail  string      `json:"detail,omitempty"`
}

func (e DegradeEvent) String() string {
	return fmt.Sprintf("%s[%s] %s in %s", e.Checker, e.Kind, e.Detail, e.Func)
}

// CheckerFailure is a checker that panicked mid-run — a bug in a metal
// action or a registered Go callout. The engine's reports emitted
// before the crash survive; the rest of the checker's roots are
// skipped; other checkers are unaffected.
type CheckerFailure struct {
	Checker string `json:"checker"`
	// Root is the root function being analyzed when the panic fired.
	Root  string `json:"root,omitempty"`
	Panic string `json:"panic"`
	Stack string `json:"stack,omitempty"`
}

func (f *CheckerFailure) String() string {
	return fmt.Sprintf("checker %s panicked analyzing %s: %s", f.Checker, f.Root, f.Panic)
}

// ctxPollInterval is how many block traversals pass between
// context/deadline polls. Polling amortizes the ctx.Err() and
// time.Now() costs to keep governance overhead in the noise; the
// trade is that cancellation lags by at most this many blocks.
const ctxPollInterval = 256

// Degraded reports whether any budget, cap or cancellation truncated
// this engine's run.
func (en *Engine) Degraded() bool { return len(en.Degradations) > 0 }

// noteDegrade records a truncation once per (kind, func).
func (en *Engine) noteDegrade(kind DegradeKind, fn, detail string) {
	key := string(kind) + "|" + fn
	if en.degradeSeen == nil {
		en.degradeSeen = map[string]bool{}
	}
	if en.degradeSeen[key] {
		return
	}
	en.degradeSeen[key] = true
	en.Degradations = append(en.Degradations, DegradeEvent{
		Kind: kind, Checker: en.Checker.Name, Func: fn, Detail: detail,
	})
}

// beginRoot resets the per-root governance state.
func (en *Engine) beginRoot(root *prog.Function) {
	en.curRoot = root.Name
	en.rootHalted = false
	en.rootBlocks = 0
	en.rootInstOps = 0
	en.ctxPoll = 0 // poll promptly after a root starts
	if d := en.Opts.Budgets.FuncTime; d > 0 {
		en.rootDeadline = time.Now().Add(d)
	} else {
		en.rootDeadline = time.Time{}
	}
}

// halted is the traversal choke-point check: true stops descent. The
// fast path (no context, no time budget) is two branch tests; the
// poll runs every ctxPollInterval blocks.
func (en *Engine) halted() bool {
	if en.cancelled || en.rootHalted {
		return true
	}
	if en.runCtx == nil && en.rootDeadline.IsZero() {
		return false
	}
	en.ctxPoll--
	if en.ctxPoll > 0 {
		return false
	}
	en.ctxPoll = ctxPollInterval
	if en.runCtx != nil {
		if err := en.runCtx.Err(); err != nil {
			en.cancelled = true
			en.noteDegrade(DegradeCancelled, en.curRoot, err.Error())
			return true
		}
	}
	if !en.rootDeadline.IsZero() && time.Now().After(en.rootDeadline) {
		en.rootHalted = true
		en.noteDegrade(DegradeFuncTime, en.curRoot,
			fmt.Sprintf("exceeded %s", en.Opts.Budgets.FuncTime))
		return true
	}
	return false
}

// overBudget applies the cheap per-block budget checks (called after
// halted, with the block about to be entered). Path steps are
// bulk-counted here — the block's point total is added once at entry
// instead of per point inside the hot extension loop.
func (en *Engine) overBudget(st *pathState, b *cfg.Block) bool {
	bg := &en.Opts.Budgets
	if bg.FuncBlocks > 0 && en.rootBlocks >= bg.FuncBlocks {
		en.rootHalted = true
		en.noteDegrade(DegradeFuncBlocks, en.curRoot,
			fmt.Sprintf("exceeded %d block traversals", bg.FuncBlocks))
		return true
	}
	if bg.InstanceOps > 0 && en.rootInstOps >= bg.InstanceOps {
		en.rootHalted = true
		en.noteDegrade(DegradeInstanceOps, en.curRoot,
			fmt.Sprintf("exceeded %d instance-match operations", bg.InstanceOps))
		return true
	}
	if bg.PathSteps > 0 {
		if st.steps >= bg.PathSteps {
			en.noteDegrade(DegradePathSteps, en.curRoot,
				fmt.Sprintf("path exceeded %d steps", bg.PathSteps))
			return true
		}
		// +1 covers the block's condition or synthetic return point;
		// the budget is a truncation bound, not an exact point count.
		st.steps += int64(len(b.Exprs)) + 1
	}
	en.rootBlocks++
	return false
}

// RunContext applies the checker to the whole program, starting a DFS
// at each callgraph root (§2.1, §6), under a context: cancellation or
// deadline expiry stops the traversal at the next poll, records a
// DegradeCancelled event, and returns whatever reports were emitted so
// far.
func (en *Engine) RunContext(ctx context.Context) *report.Set {
	en.RunRootsContext(ctx, en.Prog.Roots)
	return en.Reports
}

// RunRootsContext applies the checker to the given roots in order
// under a context, recording the report segment each root contributed:
// one RootRun, in root order, per root that emitted a report, and none
// for a root that emitted nothing (cache.NewUnitEntry lays the empty
// segments out); running all of Prog.Roots is RunContext. A panic in a metal action or
// Go callout stops this checker (recording en.Failure with the panic
// value and stack) but leaves already-emitted reports intact and the
// process alive.
func (en *Engine) RunRootsContext(ctx context.Context, roots []*prog.Function) []RootRun {
	if ctx != nil && ctx.Done() != nil {
		en.runCtx = ctx
		en.govern = true
	}
	en.ensureCompiled()
	var out []RootRun
	for _, root := range roots {
		if en.runCtx != nil && !en.cancelled {
			if err := en.runCtx.Err(); err != nil {
				en.cancelled = true
				en.noteDegrade(DegradeCancelled, root.Name, err.Error())
			}
		}
		if en.cancelled || en.Failure != nil {
			break
		}
		// Compiled-dispatch root skip (compile.go): a checker none of
		// whose initial-state transitions can fire anywhere in this
		// root's callee closure is a provable no-op over it — no
		// reports, marks, or rule counts — so the traversal is skipped,
		// its segment empty, byte-identical to having run it.
		if en.compiled.SkipRoot(en.checkerIdx, root) {
			en.Stats.RootsSkipped++
			en.retireAfter(root)
			continue
		}
		before := len(en.Reports.Reports)
		en.runRootIsolated(root)
		if len(en.Reports.Reports) > before {
			out = append(out, RootRun{Root: root, Reports: en.Reports.Reports[before:]})
		}
		// Drop whatever this root's completion retired (stream.go;
		// no-op without SetRetire).
		en.retireAfter(root)
	}
	return out
}

// runRootIsolated traverses one root inside a recover barrier.
func (en *Engine) runRootIsolated(root *prog.Function) {
	defer func() {
		if r := recover(); r != nil {
			en.Failure = &CheckerFailure{
				Checker: en.Checker.Name,
				Root:    root.Name,
				Panic:   fmt.Sprint(r),
				Stack:   string(debug.Stack()),
			}
		}
	}()
	en.dfsDirty = true
	fi := en.funcInfo(root)
	en.callStack = append(en.callStack[:0], root)
	// A root that panicked left its tuples, partitions and instances on
	// the stacks.
	en.popTuples(0)
	en.parts = en.parts[:0]
	en.popInstances(0, 0)
	st := en.enter(nil, root, en.initG)
	en.Stats.Analyses[root.Name]++
	fi.Analyses++
	en.beginRoot(root)
	en.traverseBlock(st, root.Graph.Entry)
	en.release(st)
}
