package main

// Output checks that can disagree with the engine: generator ground
// truth (independent of the engine), the plain engine's digest of the
// same tree (holds cached, streamed, served and fleet runs to it), and
// digests pinned for seed 2002.

import (
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"repro/internal/workload"
	"repro/mc"
)

// jobs is the analysis parallelism of every workload, fixed and
// recorded: the host this benchmark was sized on has two cores.
const jobs = 2

// kindChecker maps a seeded bug kind to the checker that covers it.
var kindChecker = map[string]string{
	"use-after-free": "free_checker",
	"double-free":    "free_checker",
	"missing-unlock": "lock_checker",
	"null-deref":     "null_checker",
	"leak":           "leak_checker",
	"interrupt":      "interrupt_checker",
}

// Digests identify one run's output. Ordered is the mcbench recipe
// (Ranked→Detailed plus Grouped lines, in rank order). The two Set
// digests cover the same lines sorted, so they ignore how ties in the
// ranking fall: at HEAD the cache-aware path emits a multi-root unit's
// reports unit by unit rather than in global root order, which the
// stable rank sort carries into the output (README, finding 5).
// TextSet is built from what the daemon's reply carries.
type Digests struct {
	Ordered     string `json:"ordered,omitempty"`
	DetailedSet string `json:"detailed_set,omitempty"`
	TextSet     string `json:"text_set"`
}

func digestsOf(res *mc.Result) Digests {
	var ordered strings.Builder
	var detailed, text []string
	for _, r := range res.Ranked() {
		ordered.WriteString(r.Detailed())
		detailed = append(detailed, r.Detailed())
		text = append(text, r.String())
	}
	for _, g := range res.Grouped() {
		line := fmt.Sprintf("%s %.3f %d\n", g.Rule, g.Z, len(g.Reports))
		ordered.WriteString(line)
		detailed = append(detailed, line)
	}
	return Digests{Ordered: sha(ordered.String()), DetailedSet: setDigest(detailed), TextSet: setDigest(text)}
}

// setDigest hashes the lines in sorted order.
func setDigest(lines []string) string {
	sort.Strings(lines)
	return sha(strings.Join(lines, "\x00"))
}

func sha(s string) string { return fmt.Sprintf("%x", sha256.Sum256([]byte(s))) }

// missed counts ground-truth bugs with no report by the covering
// checker in the bug's function. reported holds "checker\x00func".
func missed(bugs []workload.Bug, reported map[string]bool) int {
	n := 0
	for _, b := range bugs {
		if c, ok := kindChecker[b.Kind]; ok && !reported[c+"\x00"+b.Func] {
			n++
		}
	}
	return n
}

func reportedIn(reports []*mc.Report) map[string]bool {
	out := make(map[string]bool, len(reports))
	for _, r := range reports {
		out[r.Checker+"\x00"+r.Func] = true
	}
	return out
}

// newAnalyzer is what every op builds afresh, as xgcc does per
// invocation: the whole tree, all bundled checkers, default options.
func newAnalyzer(srcs map[string]string, cfg mc.RunConfig) (*mc.Analyzer, error) {
	a := mc.NewAnalyzer()
	if err := a.Configure(cfg); err != nil {
		return nil, err
	}
	for name, src := range srcs {
		a.AddSource(name, src)
	}
	for _, s := range mc.BundledCheckers() {
		if err := a.LoadBundledChecker(s.Name); err != nil {
			return nil, err
		}
	}
	a.MarkFunction("net_wait", "blocking")
	return a, nil
}

// runToEnd runs an analyzer and rejects anything short of a complete
// result.
func runToEnd(a *mc.Analyzer) (*mc.Result, error) {
	res, err := a.RunContext(context.Background())
	if err != nil {
		return nil, err
	}
	return res, complete(res.Degraded, len(res.Failures))
}

func complete(degraded bool, failures int) error {
	if degraded || failures > 0 {
		return fmt.Errorf("incomplete result: degraded=%v, %d checker failures", degraded, failures)
	}
	return nil
}

// analyze is one untraced op's worth of analysis.
func analyze(srcs map[string]string, cfg mc.RunConfig) (*mc.Result, error) {
	return (*probe)(nil).analyze(srcs, cfg)
}

// plain is the reference every other configuration is held to: one
// job, no cache, in memory. The analyzer comes back too, for Verify.
func plain(srcs map[string]string) (*mc.Analyzer, *mc.Result, error) {
	a, err := newAnalyzer(srcs, mc.RunConfig{Jobs: 1})
	if err != nil {
		return nil, nil, err
	}
	res, err := runToEnd(a)
	return a, res, err
}

//go:embed expected.json
var expectedJSON []byte

// pinnedSeed is the seed whose plain digests expected.json pins.
const pinnedSeed = 2002

// expected maps a tree name ("leaf-L", "calls-L", …, "historical") to
// the plain Ordered digest at pinnedSeed.
func expected() (map[string]string, error) {
	var m map[string]string
	if err := json.Unmarshal(expectedJSON, &m); err != nil {
		return nil, fmt.Errorf("expected.json: %w", err)
	}
	return m, nil
}

// checkHistorical re-checks the digest every earlier BENCH_*.json file
// carries for MixedTree(4,25,2002).
func checkHistorical() error {
	want, err := expected()
	if err != nil {
		return err
	}
	srcs, _ := workload.MixedTree(4, leavesPerFile, pinnedSeed)
	_, res, err := plain(srcs)
	if err != nil {
		return err
	}
	if got := digestsOf(res).Ordered; got != want["historical"] {
		return fmt.Errorf("MixedTree(4,25,2002) digest %s, want %s", got, want["historical"])
	}
	return nil
}
