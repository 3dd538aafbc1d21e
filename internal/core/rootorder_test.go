package core

import (
	"context"
	"fmt"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/checkers"
	"repro/internal/prog"
)

// TestRootOrderFinding4 pins benchmark finding 4 (ROADMAP item 1) as it
// stands: an engine that runs a_top before z_mid loses z_mid's
// use-after-free, because leaf's summary then claims more than was
// traversed. The oracle is the union of one fresh engine per root. The
// shared engine may never report what the oracle does not, and what it
// misses must be exactly knownMissing — a change that moves the gap in
// either direction fails here and has to say so.
func TestRootOrderFinding4(t *testing.T) {
	data, err := os.ReadFile("../../testdata/rootorder/finding4.c")
	if err != nil {
		t.Fatal(err)
	}
	asWritten := string(data)
	// Roots run in name order: renamed, z_mid's body runs first.
	midFirst := strings.NewReplacer("a_top", "z_top", "z_mid", "a_mid").Replace(asWritten)

	oracle := []string{"15:12 using p after free!", "4:9 double free of p!"}
	// ROADMAP 1(a) empties this.
	knownMissing := map[string][]string{
		"as-written": {"15:12 using p after free!"},
		"mid-first":  nil,
	}

	keys := func(en *Engine) []string {
		var out []string
		for _, r := range en.Reports.Reports {
			out = append(out, fmt.Sprintf("%d:%d %s", r.Pos.Line, r.Pos.Col, r.Msg))
		}
		sort.Strings(out)
		return out
	}
	free := mustChecker(t, checkers.Free)
	for _, order := range []struct{ name, src string }{{"as-written", asWritten}, {"mid-first", midFirst}} {
		for _, fc := range []bool{true, false} {
			for _, bc := range []bool{true, false} {
				name := fmt.Sprintf("%s/FunctionCache=%v/BlockCache=%v", order.name, fc, bc)
				opts := DefaultOptions()
				opts.FunctionCache, opts.BlockCache = fc, bc
				p := buildProg(t, map[string]string{"finding4.c": order.src})

				union := map[string]bool{}
				for _, root := range p.Roots {
					en := NewEngine(p, free, opts)
					en.RunRootsContext(context.Background(), []*prog.Function{root})
					for _, k := range keys(en) {
						union[k] = true
					}
				}
				var want []string
				for k := range union {
					want = append(want, k)
				}
				sort.Strings(want)
				if !reflect.DeepEqual(want, oracle) {
					t.Errorf("%s: one engine per root reports %v, want %v", name, want, oracle)
				}

				shared := NewEngine(p, free, opts)
				shared.RunContext(context.Background())
				var missing []string
				got := keys(shared)
				for _, k := range got {
					if !union[k] {
						t.Errorf("%s: the shared engine reports %q, which no single-root engine does", name, k)
					}
					delete(union, k)
				}
				for k := range union {
					missing = append(missing, k)
				}
				sort.Strings(missing)
				if !reflect.DeepEqual(missing, knownMissing[order.name]) {
					t.Errorf("%s: the shared engine misses %v, known gap is %v (reports: %v)",
						name, missing, knownMissing[order.name], got)
				}
			}
		}
	}
}
