// Command metalc is the metal checker front end: it parses checker
// source and dumps the compiled state machine — states, transitions,
// patterns, and actions — for inspection and debugging.
//
// Usage:
//
//	metalc checker.metal
//	metalc -bundled free
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"

	"repro/internal/cc"
	"repro/internal/checkers"
	"repro/internal/metal"
	"repro/internal/pattern"
	"repro/internal/prog"
)

func main() {
	bundled := flag.String("bundled", "", "dump a bundled checker by name instead of a file")
	match := flag.String("match", "", "C file: show every program point each pattern matches (checker-debugging aid)")
	flag.Parse()

	var src, origin string
	switch {
	case *bundled != "":
		s, ok := checkers.Lookup(*bundled)
		if !ok {
			fmt.Fprintf(os.Stderr, "metalc: unknown bundled checker %q\n", *bundled)
			os.Exit(1)
		}
		src, origin = s.Text, "bundled:"+s.Name
	case flag.NArg() == 1:
		data, err := os.ReadFile(flag.Arg(0))
		if err != nil {
			fmt.Fprintln(os.Stderr, "metalc:", err)
			os.Exit(1)
		}
		src, origin = string(data), flag.Arg(0)
	default:
		fmt.Fprintln(os.Stderr, "usage: metalc <checker.metal> | metalc -bundled <name>")
		os.Exit(2)
	}

	c, err := metal.Parse(src)
	if err != nil {
		fmt.Fprintln(os.Stderr, "metalc:", err)
		os.Exit(1)
	}

	fmt.Printf("checker %s (%s)\n", c.Name, origin)
	fmt.Printf("  source lines: %d\n", c.SourceLines)
	fmt.Printf("  initial global state: %s\n", c.InitialGlobal())
	fmt.Printf("  global states: %v\n", c.GlobalStates)
	for v, states := range c.VarStates {
		h := c.Vars[v]
		kind := string(h.Meta)
		if kind == "" && h.CType != nil {
			kind = h.CType.String()
		}
		fmt.Printf("  state variable %s (%s): states %v\n", v, kind, states)
	}
	fmt.Printf("  transitions (%d):\n", len(c.Transitions))
	for _, tr := range c.Transitions {
		fmt.Printf("    [%d] %s: %s\n", tr.ID, tr.Source, tr)
	}

	if *match != "" {
		if err := showMatches(c, *match); err != nil {
			fmt.Fprintln(os.Stderr, "metalc:", err)
			os.Exit(1)
		}
	}
}

// showMatches runs every transition's pattern over every program
// point of the file and prints the matches — the checker author's
// answer to "why doesn't my pattern fire?". State-variable holes are
// left unbound so creation and instance patterns alike show their raw
// match sites.
func showMatches(c *metal.Checker, path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	f, err := cc.ParseFile(path, string(data))
	if err != nil {
		return err
	}
	p := prog.Build(f)
	reg := pattern.Registry{}
	for k, v := range pattern.Builtins() {
		reg[k] = v
	}
	fmt.Printf("\npattern matches in %s:\n", path)
	total := 0
	for _, fn := range p.All {
		for _, b := range fn.Graph.Blocks {
			for _, pt := range b.Points {
				ctx := &pattern.Ctx{
					Point: pt, Types: fn.Types, Callouts: reg, FuncName: fn.Name,
					Locals: fn.Graph.Locals, BranchCond: b.Cond, ReturnExpr: b.ReturnX,
				}
				for _, tr := range c.Transitions {
					if bnd, ok := tr.Pat.Match(ctx, pattern.Bindings{}); ok {
						total++
						fmt.Printf("  %s: transition [%d] %s matches %q",
							pt.Pos(), tr.ID, tr.Pat, cc.ExprString(pt))
						byName := slices.Clone(bnd)
						slices.SortFunc(byName, func(a, b pattern.Bound) int { return strings.Compare(a.Name, b.Name) })
						for _, b := range byName {
							fmt.Printf("  %s=%s", b.Name, b.Binding)
						}
						fmt.Println()
					}
				}
			}
		}
	}
	fmt.Printf("%d matches\n", total)
	return nil
}
