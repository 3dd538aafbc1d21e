package rank

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/cc"
	"repro/internal/report"
)

func mkReport(line, startLine, conds, syn int, interproc bool, chain int, class report.Class) *report.Report {
	return &report.Report{
		Checker:         "t",
		Msg:             "m",
		Pos:             cc.Pos{File: "f.c", Line: line},
		Start:           cc.Pos{File: "f.c", Line: startLine},
		Conditionals:    conds,
		SynonymDepth:    syn,
		Interprocedural: interproc,
		CallChain:       chain,
		Class:           class,
	}
}

// E6: the generic ranking criteria, one at a time.
func TestE6GenericDistance(t *testing.T) {
	near := mkReport(12, 10, 0, 0, false, 0, report.ClassNone)
	far := mkReport(500, 10, 0, 0, false, 0, report.ClassNone)
	out := Generic([]*report.Report{far, near})
	if out[0] != near {
		t.Error("shorter distance should rank first")
	}
}

func TestE6ConditionalsWeightedTenLines(t *testing.T) {
	// 3 conditionals = 30 lines; a 25-line error with 0 conditionals
	// outranks a 5-line error with 3 conditionals (5+30=35).
	plain := mkReport(35, 10, 0, 0, false, 0, report.ClassNone)
	condy := mkReport(15, 10, 3, 0, false, 0, report.ClassNone)
	out := Generic([]*report.Report{condy, plain})
	if out[0] != plain {
		t.Errorf("25 lines < 5 lines + 3 conditionals*10; got %+v first", out[0])
	}
}

func TestE6Indirection(t *testing.T) {
	direct := mkReport(100, 10, 5, 0, false, 0, report.ClassNone)
	synonym := mkReport(12, 10, 0, 1, false, 0, report.ClassNone)
	out := Generic([]*report.Report{synonym, direct})
	if out[0] != direct {
		t.Error("errors without synonyms rank above those with (criterion 3)")
	}
	// Chain length orders within synonym users.
	s1 := mkReport(12, 10, 0, 1, false, 0, report.ClassNone)
	s3 := mkReport(12, 10, 0, 3, false, 0, report.ClassNone)
	out2 := Generic([]*report.Report{s3, s1})
	if out2[0] != s1 {
		t.Error("shorter assignment chains first")
	}
}

func TestE6LocalBeforeInterprocedural(t *testing.T) {
	local := mkReport(400, 10, 9, 0, false, 0, report.ClassNone)
	global := mkReport(11, 10, 0, 0, true, 1, report.ClassNone)
	out := Generic([]*report.Report{global, local})
	if out[0] != local {
		t.Error("local errors rank above interprocedural ones (criterion 4)")
	}
	g1 := mkReport(12, 10, 0, 0, true, 1, report.ClassNone)
	g4 := mkReport(12, 10, 0, 0, true, 4, report.ClassNone)
	out2 := Generic([]*report.Report{g4, g1})
	if out2[0] != g1 {
		t.Error("shorter call chains first among global errors")
	}
}

func TestAnnotationClasses(t *testing.T) {
	sec := mkReport(900, 10, 9, 5, true, 9, report.ClassSecurity)
	errc := mkReport(11, 10, 0, 0, false, 0, report.ClassError)
	none := mkReport(11, 10, 0, 0, false, 0, report.ClassNone)
	minor := mkReport(11, 10, 0, 0, false, 0, report.ClassMinor)
	out := Generic([]*report.Report{minor, none, errc, sec})
	want := []*report.Report{sec, errc, none, minor}
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("class order wrong at %d: %v", i, out[i].Class)
		}
	}
}

func TestZStatistic(t *testing.T) {
	// z(n, e) with p0 = 0.5. For e=n (always followed), z = sqrt(n).
	if z := ZStatistic(100, 100, 0.5); math.Abs(z-10) > 1e-9 {
		t.Errorf("z(100,100) = %v, want 10", z)
	}
	// Half followed: z = 0.
	if z := ZStatistic(100, 50, 0.5); math.Abs(z) > 1e-9 {
		t.Errorf("z(100,50) = %v, want 0", z)
	}
	if z := ZStatistic(0, 0, 0.5); z != 0 {
		t.Errorf("z(0,0) = %v", z)
	}
}

// Property: z is monotone in e for fixed n, and increasing in n for a
// fixed ratio above p0.
func TestZMonotonicity(t *testing.T) {
	f := func(n8, e8 uint8) bool {
		n := int(n8)%200 + 2
		e := int(e8) % n
		return ZStatistic(n, e+1, 0.5) > ZStatistic(n, e, 0.5)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	if !(ZStatistic(400, 360, 0.5) > ZStatistic(100, 90, 0.5)) {
		t.Error("more evidence at the same ratio should increase z")
	}
}

// E5 in miniature: the paper's free-checker anecdote. Reliable rules
// ("one error per few hundred callsites") must outrank broken analysis
// facts ("fifty errors per hundred callsites").
func TestE5FreeCheckerAnecdote(t *testing.T) {
	stats := map[string]RuleStat{
		"kfree":        {Rule: "kfree", Examples: 297, Violations: 3},
		"maybe_free":   {Rule: "maybe_free", Examples: 50, Violations: 50},
		"cond_release": {Rule: "cond_release", Examples: 45, Violations: 55},
	}
	var reports []*report.Report
	add := func(rule string, n int) {
		for i := 0; i < n; i++ {
			r := mkReport(10+i, 10, 0, 0, false, 0, report.ClassNone)
			r.Rule = rule
			reports = append(reports, r)
		}
	}
	add("maybe_free", 50)
	add("kfree", 3)
	add("cond_release", 55)

	ranked := Statistical(reports, stats)
	for i := 0; i < 3; i++ {
		if ranked[i].Rule != "kfree" {
			t.Fatalf("position %d: rule %s; real errors must rank first", i, ranked[i].Rule)
		}
	}
	groups := Grouped(reports, stats)
	if groups[0].Rule != "kfree" {
		t.Errorf("top group = %s", groups[0].Rule)
	}
	if groups[len(groups)-1].Rule == "kfree" {
		t.Error("kfree group sank")
	}
}

func TestRankCodeWrappers(t *testing.T) {
	// §9 "Ranking code": functions with many successful acquire/release
	// pairs and few mismatches rank highest; wrapper functions (all
	// mismatches) sink.
	stats := []CodeStat{
		{Function: "lock_wrapper", Successes: 0, Mismatches: 40},
		{Function: "mostly_right", Successes: 38, Mismatches: 2},
		{Function: "balanced_noise", Successes: 5, Mismatches: 5},
	}
	out := RankCode(stats)
	if out[0].Function != "mostly_right" {
		t.Errorf("top = %s", out[0].Function)
	}
	if out[len(out)-1].Function != "lock_wrapper" {
		t.Errorf("bottom = %s", out[len(out)-1].Function)
	}
}

func TestStableWithinRule(t *testing.T) {
	// Within a rule group, generic criteria still order reports.
	stats := map[string]RuleStat{"r": {Rule: "r", Examples: 90, Violations: 10}}
	near := mkReport(12, 10, 0, 0, false, 0, report.ClassNone)
	far := mkReport(300, 10, 4, 0, false, 0, report.ClassNone)
	near.Rule, far.Rule = "r", "r"
	out := Statistical([]*report.Report{far, near}, stats)
	if out[0] != near {
		t.Error("generic order must survive within a rule")
	}
}

func TestHistorySuppression(t *testing.T) {
	// §8 "History": reports matching a prior version are suppressed;
	// the key survives line-number drift but not variable renames.
	old := mkReport(100, 90, 0, 0, false, 0, report.ClassNone)
	old.Func = "f"
	old.Vars = []string{"p"}
	h := report.NewHistory([]*report.Report{old})

	moved := mkReport(250, 240, 0, 0, false, 0, report.ClassNone)
	moved.Func = "f"
	moved.Vars = []string{"p"}
	renamed := mkReport(100, 90, 0, 0, false, 0, report.ClassNone)
	renamed.Func = "f"
	renamed.Vars = []string{"q"}

	kept := h.Suppress([]*report.Report{moved, renamed})
	if len(kept) != 1 || kept[0] != renamed {
		t.Errorf("history suppression wrong: kept %v", kept)
	}
}

// TestByZOrdering: Grouped puts each rule's reports in one group and
// orders the groups by descending z, equal z by rule name, unknown
// rules last.
func TestByZOrdering(t *testing.T) {
	stats := map[string]RuleStat{
		"noisy": {Rule: "noisy", Examples: 10, Violations: 10},
		"solid": {Rule: "solid", Examples: 99, Violations: 1},
		"alpha": {Rule: "alpha", Examples: 50, Violations: 50},
	}
	var reports []*report.Report
	for i, rule := range []string{"mystery", "noisy", "solid", "alpha", "solid"} {
		r := mkReport(10+i, 5, 0, 0, false, 0, report.ClassNone)
		r.Rule = rule
		reports = append(reports, r)
	}
	var got []string
	for _, g := range Grouped(reports, stats) {
		got = append(got, fmt.Sprintf("%s:%d", g.Rule, len(g.Reports)))
	}
	// Equal z (noisy and alpha both 0.0) tie-break by name.
	if want := "solid:2 alpha:1 noisy:1 mystery:1"; strings.Join(got, " ") != want {
		t.Errorf("groups = %v, want %s", got, want)
	}
}

func TestStatisticalUnknownRuleSinks(t *testing.T) {
	stats := map[string]RuleStat{"known": {Rule: "known", Examples: 9, Violations: 1}}
	known := mkReport(10, 5, 0, 0, false, 0, report.ClassNone)
	known.Rule = "known"
	unknown := mkReport(10, 5, 0, 0, false, 0, report.ClassNone)
	unknown.Rule = "mystery"
	out := Statistical([]*report.Report{unknown, known}, stats)
	if out[0] != known || out[1] != unknown {
		t.Error("reports from unknown rules must sink below known rules")
	}
}
