package pattern

import (
	"testing"

	"repro/internal/cc"
)

// BenchmarkBaseMatch times the three outcomes of one pattern match
// attempt (DESIGN.md §10.1): a match, which binds a hole into the
// context's buffer, and the two rejections that make up nearly every
// attempt the engine makes — the wrong root node kind and the wrong
// callee. None of the three allocates.
func BenchmarkBaseMatch(b *testing.B) {
	holes := map[string]*Hole{"e": {Name: "e", Meta: MetaAnyExpr}}
	p, err := CompileBase("spin_lock(e)", holes)
	if err != nil {
		b.Fatal(err)
	}
	var prior Bindings
	for _, c := range []struct {
		name, point string
		matches     bool
	}{
		{"match", "spin_lock(flags + 1)", true},
		{"mismatch-root", "flags + 1", false},
		{"mismatch-callee", "spin_unlock(flags + 1)", false},
	} {
		target, err := cc.ParseExprString(c.point)
		if err != nil {
			b.Fatal(err)
		}
		ctx := &Ctx{Point: target, Callouts: Builtins()}
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, ok := p.Match(ctx, prior); ok != c.matches {
					b.Fatalf("{spin_lock(e)} at %q matched=%v", c.point, ok)
				}
			}
		})
	}
}
