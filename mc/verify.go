package mc

// The second-tier feasibility pass, analyzer-side (DESIGN.md §13).
// Verify annotates a finished Result's reports with verdicts; it
// never adds or removes a report, so the report set (ignoring the
// verdict fields) is byte-identical whether or not it runs.

import (
	"repro/internal/feas"
	"repro/internal/report"
)

// Verify runs the feasibility pass over res.Reports, writing
// Verdict/VerdictWhy into each report, and counts the verdicts. A
// Budgets.PathSteps ceiling also caps how many recorded witness events
// one verdict may replay. It writes nothing to the cache store: a
// verdict costs less to recompute than to fetch (DESIGN.md §13.4).
// workers is ignored: the pass is one loop. It stays only because the
// frozen benchmark/layers.go:630 passes it.
func (a *Analyzer) Verify(res *Result, workers int) feas.Stats {
	return feas.Annotate(res.Reports, int(a.opts.Budgets.PathSteps))
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
