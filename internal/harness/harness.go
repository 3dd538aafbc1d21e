// Package harness is the checker admission gate (DESIGN.md §14): it
// runs a candidate metal checker — alone, in a throwaway analyzer —
// against a seeded true-positive/false-positive corpus
// (workload.ValidationCorpus) under the engine's panic/step/time
// isolation, and turns the outcome into a structured Verdict. A buggy
// checker becomes a "rejected" verdict with reasons attached, never an
// outage: panics are contained per checker, runaway traversals trip
// the budgets, and the whole run is deadline-bounded.
//
// Scoring follows the paper's §9 statistical ranking: with the corpus'
// ground truth exact, each report is a true positive (lands in a
// seeded-bug function) or a false positive (anywhere else), and the
// z-statistic over p0 = 0.5 summarizes the balance — a checker whose
// reports are mostly noise scores strongly negative and is rejected.
// A checker that reports nothing is admitted as harmless: the corpus
// gates behavior, not coverage.
package harness

import (
	"context"
	"fmt"
	"time"

	"repro/internal/metal"
	"repro/internal/rank"
	"repro/internal/workload"
	"repro/mc"
)

// Verdict status values (mirrored by registry.StatusAdmitted /
// StatusRejected so a verdict can be stored as-is).
const (
	StatusAdmitted = "admitted"
	StatusRejected = "rejected"
)

// The admission corpus and its z gate, fixed so every verdict is
// reproducible.
const (
	// corpusScale is the number of seeded corpus groups
	// (workload.ValidationCorpus's scale); each group carries 6 seeded
	// bugs plus clean, call-dense, and branch-dense functions.
	corpusScale = 4
	// corpusSeed fixes the corpus generator.
	corpusSeed = 20020617 // PLDI 2002's opening day
	// minZ is the admission floor on the §9 z-statistic; checkers with
	// at least minReports reports and z below the floor are rejected as
	// over-reporters.
	minZ = 0.0
	// minReports is how many reports it takes before the z gate
	// applies — a handful of reports is signal either way, not noise.
	minReports = 5
)

// Config tunes one validation run. The zero value is unusable; start
// from DefaultConfig.
type Config struct {
	// Budgets bounds the candidate's traversals (mc.Budgets); a tripped
	// budget is a rejection, since every bundled checker fits far under
	// the defaults.
	Budgets mc.Budgets
	// Timeout bounds the whole validation run's wall clock.
	Timeout time.Duration
	// Jobs is the analyzer parallelism (0 = GOMAXPROCS).
	Jobs int
}

// DefaultConfig returns the admission settings the daemon and xgcc
// -validate use. The budgets sit two orders of magnitude above what
// the heaviest bundled checker needs on the corpus, so they only trip
// on pathological behavior. InstanceOps is the load-bearing one for
// machine-written checkers: a checker that tracks an instance per
// expression keeps block counts flat (instances walk together) while
// its per-point matching work goes quadratic, which only the
// instance-ops budget can see.
func DefaultConfig() Config {
	return Config{
		Budgets: mc.Budgets{
			PathSteps:   200_000,
			FuncBlocks:  50_000,
			FuncTime:    5 * time.Second,
			InstanceOps: 10_000,
		},
		Timeout: 30 * time.Second,
	}
}

// Verdict is the structured validation outcome. It marshals to the
// JSON stored in registry entries and returned by the daemon's
// validate endpoint.
type Verdict struct {
	Checker string `json:"checker"`
	// Status is "admitted" or "rejected".
	Status string `json:"status"`
	// Reasons lists why a rejected checker was rejected; empty when
	// admitted.
	Reasons []string `json:"reasons,omitempty"`

	// Scoring (§9): Reports is the total emitted, TruePositives those
	// in seeded-bug functions, FalsePositives the rest. Z is
	// rank.ZStatistic(Reports, TruePositives, 0.5). KillRate is the
	// fraction of seeded bugs the checker found (coverage — reported,
	// never gated on).
	Reports        int     `json:"reports"`
	TruePositives  int     `json:"true_positives"`
	FalsePositives int     `json:"false_positives"`
	SeededBugs     int     `json:"seeded_bugs"`
	KillRate       float64 `json:"kill_rate"`
	Z              float64 `json:"z"`

	// Isolation outcomes: Panicked (with PanicValue) if the checker
	// crashed mid-run, Degradations counting budget and cap truncations,
	// TimedOut if the run hit the wall clock.
	Panicked     bool   `json:"panicked"`
	PanicValue   string `json:"panic_value,omitempty"`
	Degradations int    `json:"degradations"`
	TimedOut     bool   `json:"timed_out"`

	ElapsedMS int64 `json:"elapsed_ms"`
}

// Admitted reports whether the verdict admits the checker.
func (v *Verdict) Admitted() bool { return v.Status == StatusAdmitted }

// Validate runs one candidate checker source through the admission
// corpus and scores it. A non-nil error means the validation itself
// could not run (unparseable checker, corpus failure) — a checker that
// runs and misbehaves is a rejected Verdict, not an error.
func Validate(ctx context.Context, src string, cfg Config) (*Verdict, error) {
	return validate(ctx, src, nil, cfg)
}

// ValidateWithCallouts is Validate for checkers that carry native Go
// callouts (mc.LoadCheckerWithCallouts). The daemon never takes Go
// code over the wire; this entry point exists for embedders — and it
// is how the harness's own tests prove a panicking checker yields a
// rejection, not a crash.
func ValidateWithCallouts(ctx context.Context, src string, callouts map[string]mc.Callout, cfg Config) (*Verdict, error) {
	return validate(ctx, src, callouts, cfg)
}

func validate(ctx context.Context, src string, callouts map[string]mc.Callout, cfg Config) (*Verdict, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	c, err := metal.Parse(src)
	if err != nil {
		return nil, fmt.Errorf("checker does not parse: %w", err)
	}
	corpus := workload.ValidationCorpus(corpusScale, corpusSeed)

	a := mc.NewAnalyzer()
	opts := mc.DefaultOptions()
	opts.Budgets = cfg.Budgets
	if err := a.Configure(mc.RunConfig{Options: &opts, Jobs: cfg.Jobs}); err != nil {
		return nil, err
	}
	a.AddSource("corpus.c", corpus.Source)
	if callouts == nil {
		a.AddChecker(c)
	} else if err := a.LoadCheckerWithCallouts(src, callouts); err != nil {
		return nil, err
	}

	start := time.Now()
	runCtx, cancel := context.WithTimeout(ctx, cfg.Timeout)
	defer cancel()
	res, runErr := a.RunContext(runCtx)
	v := &Verdict{
		Checker:    c.Name,
		SeededBugs: len(corpus.Bugs),
		ElapsedMS:  time.Since(start).Milliseconds(),
	}
	if res == nil {
		// RunContext yields no result only when it never started (bad
		// config); treat as a validation error, not a verdict.
		return nil, runErr
	}
	if runErr != nil && ctx.Err() == nil {
		// The harness's own deadline fired (cfg.Timeout), not the
		// caller's: the checker's fault, so score what ran and reject
		// below.
		v.TimedOut = true
	} else if runErr != nil {
		return nil, runErr // caller's context cancelled — not the checker's fault
	}

	truth := map[string]bool{}
	for _, b := range corpus.Bugs {
		truth[b.Func] = true
	}
	hit := map[string]bool{}
	for _, r := range res.Reports {
		v.Reports++
		if truth[r.Func] {
			v.TruePositives++
			hit[r.Func] = true
		} else {
			v.FalsePositives++
		}
	}
	if v.SeededBugs > 0 {
		v.KillRate = float64(len(hit)) / float64(v.SeededBugs)
	}
	if v.Reports > 0 {
		v.Z = rank.ZStatistic(v.Reports, v.TruePositives, 0.5)
	}
	v.Degradations = len(res.Degradations)

	for _, f := range res.Failures {
		v.Panicked = true
		v.PanicValue = f.Panic
	}

	// Admission rules, in severity order.
	if v.Panicked {
		v.Reasons = append(v.Reasons, fmt.Sprintf("checker panicked during validation: %s", v.PanicValue))
	}
	if v.TimedOut {
		v.Reasons = append(v.Reasons, fmt.Sprintf("validation exceeded the %s wall clock", cfg.Timeout))
	}
	if v.Degradations > 0 {
		v.Reasons = append(v.Reasons, fmt.Sprintf("traversal budget or cap tripped %d time(s): checker cost is far outside the bundled envelope", v.Degradations))
	}
	if v.Reports >= minReports && v.Z < minZ {
		v.Reasons = append(v.Reasons, fmt.Sprintf("over-reporting: %d reports, %d true positives, z=%.2f below floor %.2f", v.Reports, v.TruePositives, v.Z, minZ))
	}
	if len(v.Reasons) > 0 {
		v.Status = StatusRejected
	} else {
		v.Status = StatusAdmitted
	}
	return v, nil
}
