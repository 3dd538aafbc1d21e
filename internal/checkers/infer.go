package checkers

import (
	"sort"
	"strings"

	"repro/internal/cc"
	"repro/internal/cfg"
	"repro/internal/prog"
	"repro/internal/rank"
	"repro/internal/report"
)

// This file implements the statistical rule-inference checker of §3.2
// and [10] ("Bugs as deviant behavior"): to infer whether routines a
// and b must be paired, (1) assume that they must, (2) count the number
// of times they occur together, and (3) count the number of times they
// do not (rule violations). The reported violations are then sorted
// with the z-statistic.

// PairCandidate filters which function names participate in pairing
// inference. The default accepts everything, which is what [10] does
// before ranking separates signal from noise.
type PairCandidate func(name string) bool

// InferredPair is one candidate must-pair rule with its evidence.
type InferredPair struct {
	First, Second string
	rank.RuleStat
	// ViolationSites records where the first function was called
	// without the second following.
	ViolationSites []cc.Pos
}

// InferPairs scans every function in the program, treating each
// ordered pair (a, b) where a call to a is later followed by a call to
// b on some path as a candidate rule "a must be followed by b". For
// each call to a: if some path from the callsite reaches a call to b,
// that is an example; if no call to b follows anywhere after it in the
// function, that is a violation.
func InferPairs(p *prog.Program, candidate PairCandidate) []InferredPair {
	if candidate == nil {
		candidate = func(string) bool { return true }
	}
	type key struct{ a, b string }

	// Pass 1: candidate rules are ordered pairs (a, b) that occur
	// together — a call to a followed by a call to b — in at least one
	// function ("assume that they must [be paired]").
	followersOf := map[string]map[string]bool{}
	for _, fn := range p.All {
		calls := callSequence(fn)
		for i, ci := range calls {
			if !candidate(ci.name) {
				continue
			}
			m := followersOf[ci.name]
			if m == nil {
				m = map[string]bool{}
				followersOf[ci.name] = m
			}
			for j := i + 1; j < len(calls); j++ {
				if calls[j].name != ci.name && candidate(calls[j].name) {
					m[calls[j].name] = true
				}
			}
		}
	}

	// Pass 2: for every call to a, each candidate partner b either
	// follows on the same function's remaining call sequence (example)
	// or does not (violation).
	stats := map[key]*InferredPair{}
	for _, fn := range p.All {
		calls := callSequence(fn)
		for i, ci := range calls {
			partners := followersOf[ci.name]
			if len(partners) == 0 {
				continue
			}
			seen := map[string]bool{}
			for j := i + 1; j < len(calls); j++ {
				seen[calls[j].name] = true
			}
			for b := range partners {
				k := key{ci.name, b}
				st := stats[k]
				if st == nil {
					st = &InferredPair{First: ci.name, Second: b}
					st.Rule = ci.name + "->" + b
					stats[k] = st
				}
				if seen[b] {
					st.Examples++
				} else {
					st.Violations++
					st.ViolationSites = append(st.ViolationSites, ci.pos)
				}
			}
		}
	}
	var out []InferredPair
	for _, st := range stats {
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool {
		zi, zj := out[i].Z(), out[j].Z()
		if zi != zj {
			return zi > zj
		}
		return out[i].Rule < out[j].Rule
	})
	return out
}

type callSite struct {
	name string
	pos  cc.Pos
}

// callSequence lists the direct calls in a function in rough execution
// order (CFG blocks in construction order, points in execution order).
func callSequence(fn *prog.Function) []callSite {
	var out []callSite
	if fn.Graph == nil {
		// Streaming mode released this function's AST (DESIGN.md §12);
		// it simply contributes no call sites to the inference.
		return nil
	}
	for _, b := range fn.Graph.Blocks {
		for _, call := range cfg.CallsIn(b) {
			if name := cc.CalleeName(call); name != "" {
				out = append(out, callSite{name: name, pos: call.P})
			}
		}
	}
	return out
}

// PairReports converts high-confidence inferred pairs (z >= minZ) into
// ranked violation reports, reproducing the [10] workflow: infer rules
// statistically, then report their violations as probable bugs.
func PairReports(pairs []InferredPair, minZ float64) []*report.Report {
	var out []*report.Report
	for _, pr := range pairs {
		if pr.Z() < minZ {
			continue
		}
		for _, pos := range pr.ViolationSites {
			out = append(out, &report.Report{
				Checker: "pair_inference",
				Rule:    pr.Rule,
				Msg:     pr.First + "() not followed by " + pr.Second + "()",
				Pos:     pos,
				Start:   pos,
			})
		}
	}
	return out
}

// FormatPairs renders the inferred rules as a table for the examples
// and the mcbench harness.
func FormatPairs(pairs []InferredPair, limit int) string {
	var sb strings.Builder
	sb.WriteString("rule                          examples  violations  z\n")
	for i, pr := range pairs {
		if limit > 0 && i >= limit {
			break
		}
		name := pr.Rule
		for len(name) < 28 {
			name += " "
		}
		sb.WriteString(name)
		sb.WriteString("  ")
		sb.WriteString(pad(pr.Examples, 8))
		sb.WriteString("  ")
		sb.WriteString(pad(pr.Violations, 10))
		sb.WriteString("  ")
		sb.WriteString(formatZ(pr.Z()))
		sb.WriteByte('\n')
	}
	return sb.String()
}

func pad(n, w int) string {
	s := ""
	for v := n; ; v /= 10 {
		s = string(rune('0'+v%10)) + s
		if v < 10 {
			break
		}
	}
	for len(s) < w {
		s = " " + s
	}
	return s
}

func formatZ(z float64) string {
	neg := z < 0
	if neg {
		z = -z
	}
	whole := int(z)
	frac := int((z - float64(whole)) * 100)
	s := pad(whole, 0) + "." + func() string {
		if frac < 10 {
			return "0" + pad(frac, 0)
		}
		return pad(frac, 0)
	}()
	if neg {
		return "-" + s
	}
	return s
}
