package paper

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/mc"
)

// benchRun times r as its experiment runs it, less the program build:
// the checker parsed, a fresh engine and its run.
func benchRun(r run) func(*testing.B) {
	return func(b *testing.B) {
		p := mustProg(r.srcs)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			core.NewEngine(p, mustChecker(r.checker), r.opts).RunContext(context.Background())
		}
	}
}

// BenchmarkF4Caching measures the Figure 4 claim: block-level caching
// turns the exponential path DFS linear. CacheOn stays flat in n;
// CacheOff doubles per diamond.
func BenchmarkF4Caching(b *testing.B) {
	for _, n := range f4Diamonds {
		on, off := f4Runs(n)
		b.Run(fmt.Sprintf("CacheOn/diamonds=%d", n), benchRun(on))
		b.Run(fmt.Sprintf("CacheOff/diamonds=%d", n), benchRun(off))
	}
}

// BenchmarkE1Independence measures §5.2: analysis work grows linearly
// with the number of tracked instances.
func BenchmarkE1Independence(b *testing.B) {
	for _, k := range e1Instances {
		b.Run(fmt.Sprintf("instances=%d", k), benchRun(e1Run(k)))
	}
}

// BenchmarkE2FunctionCache measures §6.2: function-summary memoization
// across many callsites.
func BenchmarkE2FunctionCache(b *testing.B) {
	for _, m := range e2Callsites {
		on, off := e2Runs(m)
		b.Run(fmt.Sprintf("CacheOn/callsites=%d", m), benchRun(on))
		b.Run(fmt.Sprintf("CacheOff/callsites=%d", m), benchRun(off))
	}
}

// BenchmarkE3FPP measures the cost and effect of false path pruning
// over the contradictory-branch population.
func BenchmarkE3FPP(b *testing.B) {
	_, on, off := e3Runs()
	b.Run("FPPOn", benchRun(on))
	b.Run("FPPOff", benchRun(off))
}

// BenchmarkE8Emit measures pass-1 AST emission (the paper's two-pass
// front end) of E8's first row.
func BenchmarkE8Emit(b *testing.B) {
	f := e8Files()[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mc.EmitAST(f[0], f[1]); err != nil {
			b.Fatal(err)
		}
	}
}
