// Inference: the statistical rule-inference workflow of §3.2 and the
// paper's reference [10] ("Bugs as deviant behavior"): derive
// must-be-paired function rules from the code itself, rank them with
// the z-statistic, and report violations of the trustworthy rules as
// probable bugs — no rule was ever written down by hand.
package main

import (
	"fmt"
	"log"
	"strings"

	"repro/internal/checkers"
	"repro/internal/workload"
	"repro/mc"
)

func main() {
	// A generated code base where res_acquire/res_release are paired
	// by convention in 40 functions, forgotten in 3, plus 20 noise
	// functions calling unrelated helpers in arbitrary order.
	pr := workload.PairedCalls(40, 3, 20, 2026)

	a := mc.NewAnalyzer()
	a.AddSource("base.c", pr.Source)
	pairs, err := a.InferPairs(func(name string) bool {
		return strings.HasPrefix(name, "res_") || strings.HasPrefix(name, "misc_")
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("inferred candidate rules (z-ranked — only the top is trustworthy):")
	fmt.Print(checkers.FormatPairs(pairs, 6))

	// Violations of rules above the significance cut are probable
	// bugs; everything below the cut is noise the ranking discarded.
	const minZ = 2.0
	reports := checkers.PairReports(pairs, minZ)
	fmt.Printf("\nviolations of rules with z >= %.1f (probable bugs):\n", minZ)
	for _, r := range reports {
		fmt.Printf("  %s\n", r)
	}
	fmt.Printf("\n%d of %d candidate rules survived the cut; %d violations reported\n",
		countAbove(pairs, minZ), len(pairs), len(reports))
}

func countAbove(pairs []checkers.InferredPair, minZ float64) int {
	n := 0
	for _, p := range pairs {
		if p.Z() >= minZ {
			n++
		}
	}
	return n
}
