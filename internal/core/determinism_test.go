package core

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/checkers"
	"repro/internal/metal"
	"repro/internal/prog"
	"repro/internal/workload"
)

// The paper's one hard requirement on extensions is determinism (§1,
// §5.1): same state + same point ⇒ same transformation. The engine
// must uphold its side: repeated runs over the same program produce
// identical report sequences (no map-iteration order leaks), for every
// bundled checker.

func reportSeq(en *Engine) []string {
	var out []string
	for _, r := range en.Reports.Reports {
		out = append(out, r.String()+"|"+r.Func+"|"+string(r.Class))
	}
	return out
}

func TestEngineDeterministicAcrossRuns(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		srcs, _ := workload.MixedTree(3, 15, seed)
		for _, src := range checkers.All() {
			c, err := metal.Parse(src.Text)
			if err != nil {
				t.Fatalf("%s: %v", src.Name, err)
			}
			var first []string
			for run := 0; run < 3; run++ {
				p, err := prog.BuildSource(srcs)
				if err != nil {
					t.Fatal(err)
				}
				en := NewEngine(p, c, DefaultOptions())
				en.RunContext(context.Background())
				seq := reportSeq(en)
				if run == 0 {
					first = seq
					continue
				}
				if fmt.Sprint(seq) != fmt.Sprint(first) {
					t.Fatalf("checker %s seed %d: run %d differs:\n%v\nvs\n%v",
						src.Name, seed, run, seq, first)
				}
			}
		}
	}
}

// TestEngineNeverPanics sweeps every bundled checker over varied
// generated workloads with every ablation combination.
func TestEngineNeverPanics(t *testing.T) {
	workloads := []map[string]string{}
	for seed := int64(1); seed <= 3; seed++ {
		srcs, _ := workload.MixedTree(2, 12, seed)
		workloads = append(workloads, srcs)
		workloads = append(workloads, workload.LinuxLike(2, 8, seed))
		pr := workload.UseAfterFree(workload.Config{Seed: seed, Functions: 8, BranchesPerFunc: 2, BugRate: 0.4, CallDepth: 2})
		workloads = append(workloads, map[string]string{"u.c": pr.Source})
	}
	optVariants := []Options{DefaultOptions()}
	for i := 0; i < 5; i++ {
		o := DefaultOptions()
		switch i {
		case 0:
			o.Interprocedural = false
		case 1:
			o.BlockCache = false
			o.Budgets.FuncBlocks = 500_000
		case 2:
			o.FunctionCache = false
		case 3:
			o.FPP = false
		case 4:
			o.Synonyms = false
			o.Kills = false
		}
		optVariants = append(optVariants, o)
	}
	for wi, srcs := range workloads {
		p, err := prog.BuildSource(srcs)
		if err != nil {
			t.Fatalf("workload %d: %v", wi, err)
		}
		for _, src := range checkers.All() {
			c, err := metal.Parse(src.Text)
			if err != nil {
				t.Fatal(err)
			}
			for oi, opts := range optVariants {
				func() {
					defer func() {
						if r := recover(); r != nil {
							t.Fatalf("panic: workload %d checker %s opts %d: %v", wi, src.Name, oi, r)
						}
					}()
					en := NewEngine(p, c, opts)
					en.RunContext(context.Background())
				}()
			}
		}
	}
}
