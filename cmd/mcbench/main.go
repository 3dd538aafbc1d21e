// Command mcbench regenerates every figure and table of the paper (as
// indexed in DESIGN.md §4) plus the quantitative claims from the
// prose: it prints the experiments of internal/paper, so
// EXPERIMENTS.md can record paper-vs-measured.
//
// Usage:
//
//	mcbench -exp all
//	mcbench -exp f4,e1,e5
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/paper"
)

func main() {
	exp := flag.String("exp", "all", "comma-separated experiment ids, or 'all'")
	flag.Parse()

	known := map[string]bool{}
	var ids []string
	for _, e := range paper.Experiments {
		known[e.ID] = true
		ids = append(ids, e.ID)
	}
	// Every requested id is checked before anything runs: one unknown
	// id fails the invocation instead of being skipped.
	want := known
	if *exp != "all" {
		want = map[string]bool{}
		for _, id := range strings.Split(*exp, ",") {
			id = strings.TrimSpace(id)
			if !known[id] {
				fmt.Fprintf(os.Stderr, "mcbench: no such experiment %q (ids: %s, or all)\n", id, strings.Join(ids, ", "))
				os.Exit(2)
			}
			want[id] = true
		}
	}
	for _, e := range paper.Experiments {
		if !want[e.ID] {
			continue
		}
		fmt.Printf("==== %s: %s ====\n", strings.ToUpper(e.ID), e.Desc)
		e.Run(os.Stdout)
		fmt.Println()
	}
}
