// Package report defines error reports, the why-trace machinery, and
// history-based cross-version suppression (§8 "History").
package report

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/cc"
)

// Class stratifies reports by checker-assigned severity annotation
// (§9): SECURITY ranks highest, then ERROR, then unannotated, then
// MINOR.
type Class string

// Severity annotation classes.
const (
	ClassSecurity Class = "SECURITY"
	ClassError    Class = "ERROR"
	ClassNone     Class = ""
	ClassMinor    Class = "MINOR"
)

// Rank returns the class's sort weight; smaller ranks first.
func (c Class) Rank() int {
	switch c {
	case ClassSecurity:
		return 0
	case ClassError:
		return 1
	case ClassNone:
		return 2
	case ClassMinor:
		return 3
	}
	return 2
}

// Report is one rule-violation report with the provenance the ranking
// criteria of §9 need.
type Report struct {
	Checker string
	// Rule is the analysis fact the error derives from (e.g. the
	// freeing function). Reports sharing a Rule are grouped and
	// z-ranked together.
	Rule string
	Msg  string
	// Pos is where the violation happened; Start is where the checker
	// began tracking the property (the kfree for a use-after-free).
	Pos   cc.Pos
	Start cc.Pos
	// Func is the function containing the violation.
	Func string
	// Vars are the variable names involved; with Func and Msg they
	// form the history key (line numbers deliberately excluded).
	Vars []string

	// Ranking inputs (§9 "Generic ranking").
	Conditionals    int
	SynonymDepth    int
	Interprocedural bool
	CallChain       int
	Class           Class

	// Trace records why the error was flagged, step by step.
	Trace []string
}

// Distance is the line span between the start of tracking and the
// violation (§9 criterion 1).
func (r *Report) Distance() int {
	if !r.Start.IsValid() || !r.Pos.IsValid() {
		return 0
	}
	d := r.Pos.Line - r.Start.Line
	if d < 0 {
		d = -d
	}
	return d
}

// Score is the generic intra-class sort key: distance plus ten lines
// per conditional crossed (§9 criterion 2).
func (r *Report) Score() int {
	return r.Distance() + 10*r.Conditionals
}

// HistoryKey identifies the report across program versions: file name,
// function name, involved variables, and the checker's message. These
// fields are "relatively invariant under edits (unlike, for example,
// line numbers)" (§8).
func (r *Report) HistoryKey() string {
	vars := append([]string(nil), r.Vars...)
	sort.Strings(vars)
	return strings.Join([]string{r.Pos.File, r.Func, strings.Join(vars, ","), r.Checker, r.Msg}, "|")
}

// String renders the report in the classic compiler style.
func (r *Report) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s: [%s] %s", r.Pos, r.Checker, r.Msg)
	if r.Class != ClassNone {
		fmt.Fprintf(&sb, " (%s)", r.Class)
	}
	return sb.String()
}

// Detailed renders the report with its why-trace.
func (r *Report) Detailed() string {
	var sb strings.Builder
	sb.WriteString(r.String())
	sb.WriteByte('\n')
	for _, step := range r.Trace {
		fmt.Fprintf(&sb, "    %s\n", step)
	}
	return sb.String()
}

// Key is a report's identity in a Set: two reports with the same
// position, function, checker, message and rule are one violation
// reached along several paths.
type Key struct {
	Pos                      cc.Pos
	Func, Checker, Msg, Rule string
}

// Set collects reports and deduplicates exact repeats (the same
// violation reached along several paths).
type Set struct {
	Reports []*Report
	seen    map[Key]struct{}
}

// Has reports whether a report with identity k is already present, so
// that a caller can skip building one the set would drop.
func (s *Set) Has(k Key) bool {
	_, ok := s.seen[k]
	return ok
}

// Add inserts a report unless one with the same identity (Key) is
// already present. It reports whether the report was new.
func (s *Set) Add(r *Report) bool {
	k := Key{Pos: r.Pos, Func: r.Func, Checker: r.Checker, Msg: r.Msg, Rule: r.Rule}
	if s.Has(k) {
		return false
	}
	if s.seen == nil {
		s.seen = map[Key]struct{}{}
	}
	s.seen[k] = struct{}{}
	s.Reports = append(s.Reports, r)
	return true
}

// Len returns the number of distinct reports.
func (s *Set) Len() int { return len(s.Reports) }

// History is the remembered set of past-version reports used to
// suppress known false positives (§8 "History").
type History struct {
	keys map[string]bool
}

// NewHistory builds a history from a prior version's reports.
func NewHistory(old []*Report) *History {
	h := &History{keys: map[string]bool{}}
	for _, r := range old {
		h.keys[r.HistoryKey()] = true
	}
	return h
}

// Matches reports whether r corresponds to a remembered report.
func (h *History) Matches(r *Report) bool { return h.keys[r.HistoryKey()] }

// Suppress returns the reports not present in the history, preserving
// order.
func (h *History) Suppress(reports []*Report) []*Report {
	var out []*Report
	for _, r := range reports {
		if !h.Matches(r) {
			out = append(out, r)
		}
	}
	return out
}
