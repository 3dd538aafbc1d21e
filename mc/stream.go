package mc

// Streaming & memory bounding (DESIGN.md §12): the mc-side wiring of
// the engine's spill/retire hooks. When Options.MaxResidentMB > 0 the
// run streams: every engine spills a function's summaries to an
// on-disk store and drops its funcInfo caches the moment the unit DAG
// retires it, and once every checker has retired a function its AST is
// released too (astReleaser). Output is byte-identical to the
// in-memory run — eviction only ever touches state no remaining
// traversal can read (see internal/core/stream.go for the argument) —
// at the price of post-run inspection: supergraph dumps of released
// functions render empty, and InferPairs sees no call sites in them.

import (
	"os"
	"path/filepath"
	"sync"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/prog"
	"repro/internal/spill"
)

// SpillStats reports one streaming run's memory-bounding activity
// (Result.Spill; nil when streaming is off).
type SpillStats struct {
	// Evictions counts per-engine funcInfo blocks dropped at unit
	// retirement; Reloads counts summaries decoded back from the store
	// for inspection.
	Evictions int64 `json:"evictions"`
	Reloads   int64 `json:"reloads"`
	// SpillPuts / SpillBytes count summaries written to the store and
	// their encoded size.
	SpillPuts  int64 `json:"spill_puts"`
	SpillBytes int64 `json:"spill_bytes"`
	// ASTsReleased counts functions whose CFG/body AST was freed after
	// every checker retired them.
	ASTsReleased int64 `json:"asts_released"`
}

// astReleaser frees a function's AST once every checker has retired
// it. Each engine's retire callback (and each replayed task) decrements the function's countdown; the goroutine
// performing the final decrement releases the body while holding the
// mutex, which also orders the write after every earlier reader's own
// decrement — so the release is race-free without the readers taking
// any lock on their hot path.
type astReleaser struct {
	mu       sync.Mutex
	left     map[*prog.Function]int
	released int64
}

func newASTReleaser(fns []*prog.Function, need int) *astReleaser {
	left := make(map[*prog.Function]int, len(fns))
	for _, fn := range fns {
		left[fn] = need
	}
	return &astReleaser{left: left}
}

// done records that one checker is finished with the given functions,
// releasing any whose countdown reaches zero.
func (ar *astReleaser) done(fns []*prog.Function) {
	ar.mu.Lock()
	defer ar.mu.Unlock()
	for _, fn := range fns {
		n, ok := ar.left[fn]
		if !ok {
			continue
		}
		if n--; n > 0 {
			ar.left[fn] = n
			continue
		}
		delete(ar.left, fn)
		fn.ReleaseBody()
		ar.released++
	}
}

func (ar *astReleaser) count() int64 {
	ar.mu.Lock()
	defer ar.mu.Unlock()
	return ar.released
}

// streamState is one run's streaming context: the summary store, the
// retirement schedule, the AST releaser, and the precomputed
// content-addressed key material.
// Function hashes are captured before any traversal starts because
// reload may recompute a key after the body was released.
type streamState struct {
	store   *spill.Store
	retire  *prog.RetirePlan
	release *astReleaser
	optsFP  string
	envFP   string
	funcKey map[*prog.Function]string
	cleanup func()
}

// newStream builds the run's streaming context over the run's
// fingerprints. need is how many checker passes must retire a function
// before its AST may go. The store lives in RunConfig.SpillDir when set
// (persistent, so post-run inspection keeps working across processes);
// otherwise in a temp directory removed when the run returns.
func (a *Analyzer) newStream(p *prog.Program, envFP string, funcHash map[*prog.Function]string, need int) (*streamState, error) {
	dir := a.spillDir
	cleanup := func() {}
	if dir == "" {
		tmp, err := os.MkdirTemp("", "xgcc-spill-*")
		if err != nil {
			return nil, err
		}
		dir = tmp
		cleanup = func() { os.RemoveAll(tmp) }
	}
	// One append to the cache's packed log per (function, checker).
	lg, err := spill.OpenLog(filepath.Join(dir, "summaries.log"))
	if err != nil {
		cleanup()
		return nil, err
	}
	prevCleanup := cleanup
	cleanup = func() {
		lg.Close()
		prevCleanup()
	}
	// A quarter of the budget fronts the store as a decoded-summary
	// LRU; the floor keeps tiny budgets from thrashing single entries.
	budget := int64(a.opts.MaxResidentMB) << 20 / 4
	if budget < 1<<20 {
		budget = 1 << 20
	}
	st := &streamState{
		store:   spill.New(lg, budget),
		retire:  p.PlanRetire(p.Roots),
		release: newASTReleaser(p.All, need),
		optsFP:  optionsFingerprint(a.opts),
		envFP:   envFP,
		funcKey: make(map[*prog.Function]string, len(p.All)),
		cleanup: cleanup,
	}
	for _, fn := range p.All {
		st.funcKey[fn] = prog.FuncID(fn) + "=" + funcHash[fn]
	}
	return st, nil
}

// keyFor returns the engine's spill-key function for one checker: the
// same fingerprint family the incremental cache keys by (checker
// source, options, declaration environment, function content), so
// identical content re-spilled across runs lands on identical keys.
func (st *streamState) keyFor(checkerFP string) func(*prog.Function) string {
	return func(fn *prog.Function) string {
		return cache.Key("spill", checkerFP, st.optsFP, st.envFP, st.funcKey[fn])
	}
}

// collectSpill folds the run's streaming counters into the result.
func collectSpill(res *Result, st *streamState, engines []*core.Engine) {
	if st == nil {
		return
	}
	sp := &SpillStats{ASTsReleased: st.release.count()}
	for _, en := range engines {
		if en == nil {
			continue
		}
		sp.Evictions += en.Spill.Evictions
		sp.Reloads += en.Spill.Reloads
	}
	c := st.store.Counters()
	sp.SpillPuts = c.Puts
	sp.SpillBytes = c.PutBytes
	res.Spill = sp
}
