package mc

// The second-tier feasibility pass, analyzer-side (DESIGN.md §13).
// Verify annotates a finished Result's reports with verdicts; it
// never adds or removes a report, so the report set (ignoring the
// verdict fields) is byte-identical whether or not it runs.

import (
	"repro/internal/feas"
	"repro/internal/report"
)

// Verify runs the feasibility pass synchronously over res.Reports
// with a worker pool of the given size (0 means one worker), writing
// Verdict/VerdictWhy into each report. A Budgets.PathSteps ceiling also
// caps how many recorded witness events one verdict may replay.
// Verdicts are content-address cached in the analyzer's cache store
// (when one is configured), so warm runs replay them.
func (a *Analyzer) Verify(res *Result, workers int) feas.Stats {
	return feas.Annotate(res.Reports, feas.Config{
		Workers:  workers,
		MaxSteps: int(a.opts.Budgets.PathSteps),
		Store:    a.cacheStore,
	})
}

// VerifiedOnly filters reports by verdict, preserving order: verdict
// "" matches everything (no filter).
func VerifiedOnly(reports []*report.Report, verdict string) []*report.Report {
	if verdict == "" {
		return reports
	}
	var out []*report.Report
	for _, r := range reports {
		v := r.Verdict
		if v == "" {
			v = report.VerdictUnverified
		}
		if v == verdict {
			out = append(out, r)
		}
	}
	return out
}
