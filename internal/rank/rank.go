// Package rank implements xgcc's error-report ranking (§9 of the
// paper): severity stratification, the generic criteria (distance,
// conditionals, indirection, local-before-interprocedural), annotation
// classes, and the statistical z-ranking of rules and code.
package rank

import (
	"math"
	"sort"

	"repro/internal/report"
)

// Generic sorts reports by the §9 "Generic ranking" rules:
//
//  1. severity class (SECURITY > ERROR > unannotated > MINOR),
//  2. local errors before interprocedural ones, global errors ordered
//     by shortest call chain,
//  3. fewer synonyms (lower degree of indirection) first, shorter
//     assignment chains first,
//  4. score = distance + 10 lines per conditional crossed.
//
// "The latter two criteria partition error messages into different
// classes, which are then sorted using the first two criteria" — i.e.
// indirection and locality stratify; distance and conditionals order
// within each stratum.
func Generic(reports []*report.Report) []*report.Report {
	out := append([]*report.Report(nil), reports...)
	sort.SliceStable(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Class.Rank() != b.Class.Rank() {
			return a.Class.Rank() < b.Class.Rank()
		}
		if a.Interprocedural != b.Interprocedural {
			return !a.Interprocedural
		}
		if a.Interprocedural && a.CallChain != b.CallChain {
			return a.CallChain < b.CallChain
		}
		ai, bi := a.SynonymDepth > 0, b.SynonymDepth > 0
		if ai != bi {
			return !ai
		}
		if a.SynonymDepth != b.SynonymDepth {
			return a.SynonymDepth < b.SynonymDepth
		}
		return a.Score() < b.Score()
	})
	return out
}

// ZStatistic computes z(n, e) = (e/n - p0) / sqrt(p0*(1-p0)/n) — the
// z-test for proportions the paper uses with the null hypothesis "a
// rule is obeyed or violated at random" (p0 = 0.5). Larger values mean
// the rule is almost always followed, so its violations are most
// likely real errors.
func ZStatistic(n, e int, p0 float64) float64 {
	if n == 0 {
		return 0
	}
	return (float64(e)/float64(n) - p0) / math.Sqrt(p0*(1-p0)/float64(n))
}

// RuleStat is the observed behaviour of one rule: e examples (the rule
// followed) and c counterexamples (violations).
type RuleStat struct {
	Rule       string
	Examples   int
	Violations int
}

// Z returns the rule's z-statistic with p0 = 0.5 (§9).
func (r RuleStat) Z() float64 {
	n := r.Examples + r.Violations
	return ZStatistic(n, r.Examples, 0.5)
}

// ByZ sorts rule statistics by descending z-statistic: the most
// trustworthy rules — whose violations are most likely true errors —
// first.
func ByZ(stats []RuleStat) []RuleStat {
	out := append([]RuleStat(nil), stats...)
	sort.SliceStable(out, func(i, j int) bool {
		zi, zj := out[i].Z(), out[j].Z()
		if zi != zj {
			return zi > zj
		}
		return out[i].Rule < out[j].Rule
	})
	return out
}

// Statistical orders reports by the reliability of the rules that
// produced them (§9 "Statistical ranking"): reports whose Rule has a
// higher z-statistic come first; within a rule, the generic criteria
// apply. Reports for unknown rules sink to the bottom.
func Statistical(reports []*report.Report, stats map[string]RuleStat) []*report.Report {
	ranked := Generic(reports)
	sort.SliceStable(ranked, func(i, j int) bool {
		return ruleZ(ranked[i], stats) > ruleZ(ranked[j], stats)
	})
	return ranked
}

func ruleZ(r *report.Report, stats map[string]RuleStat) float64 {
	s, ok := stats[r.Rule]
	if !ok {
		return math.Inf(-1)
	}
	return s.Z()
}

// CodeStat ranks functions by how well the analysis handles them (§9
// "Ranking code"): e successful pairings, c mismatches. Functions with
// many successes and few errors rank highest — "these functions are
// exactly the ones that most likely contain errors"; functions that
// are mostly mismatches indicate the analysis cannot handle the code
// (wrapper functions) and sink.
type CodeStat struct {
	Function   string
	Successes  int
	Mismatches int
}

// Z returns the function's z-statistic.
func (c CodeStat) Z() float64 {
	n := c.Successes + c.Mismatches
	return ZStatistic(n, c.Successes, 0.5)
}

// RankCode sorts code statistics by descending z.
func RankCode(stats []CodeStat) []CodeStat {
	out := append([]CodeStat(nil), stats...)
	sort.SliceStable(out, func(i, j int) bool {
		zi, zj := out[i].Z(), out[j].Z()
		if zi != zj {
			return zi > zj
		}
		return out[i].Function < out[j].Function
	})
	return out
}

// GroupByRule buckets reports by their grouping fact and orders the
// buckets by z-statistic, reproducing "we also group all errors that
// are computed from a common analysis fact into the same class. ...
// Such grouping makes it easy to suppress them all if the analysis is
// wrong."
type RuleGroup struct {
	Rule    string
	Z       float64
	Reports []*report.Report
}

// Grouped builds z-ordered rule groups with generically-ranked members.
func Grouped(reports []*report.Report, stats map[string]RuleStat) []RuleGroup {
	byRule := map[string][]*report.Report{}
	for _, r := range reports {
		byRule[r.Rule] = append(byRule[r.Rule], r)
	}
	var groups []RuleGroup
	for rule, rs := range byRule {
		g := RuleGroup{Rule: rule, Reports: Generic(rs)}
		if s, ok := stats[rule]; ok {
			g.Z = s.Z()
		} else {
			g.Z = math.Inf(-1)
		}
		groups = append(groups, g)
	}
	sort.SliceStable(groups, func(i, j int) bool {
		if groups[i].Z != groups[j].Z {
			return groups[i].Z > groups[j].Z
		}
		return groups[i].Rule < groups[j].Rule
	})
	return groups
}
