package core

// Randomized prefilter soundness (satellite of DESIGN.md §11): the
// pre-filter and the compiled dispatch built on it are pure
// accelerators — whenever the block features admit NO atom of a
// pattern ("mayFire == false"), the pattern must fail to Match at
// every point of that block, with empty prior bindings. A violation
// here means the engine would silently drop a transition fire, so this
// property is checked over a generated corpus of pattern × program
// pairs rather than a handful of fixtures.

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/cc"
	"repro/internal/pattern"
	"repro/internal/prog"
)

var propCallees = []string{"kfree", "alloc", "probe", "f0", "f1"}

func propHoles() map[string]*pattern.Hole {
	return map[string]*pattern.Hole{
		"v":    {Name: "v", Meta: pattern.MetaAnyPtr},
		"idx":  {Name: "idx", Meta: pattern.MetaAnyExpr},
		"args": {Name: "args", Meta: pattern.MetaAnyArgs},
		"fn":   {Name: "fn", Meta: pattern.MetaAnyFnCall},
	}
}

// randBaseSrc picks one concrete template shape; together the shapes
// cover root callees, nested callees, unary/binary/index/assign roots,
// any-call holes, and return statements.
func randBaseSrc(r *rand.Rand) string {
	name := propCallees[r.Intn(len(propCallees))]
	switch r.Intn(12) {
	case 0:
		return name + "(v)"
	case 1:
		return "v = " + name + "(args)"
	case 2:
		return "*v"
	case 3:
		return "v[idx]"
	case 4:
		return "v == 0"
	case 5:
		return "!v"
	case 6:
		return "v + idx"
	case 7:
		return "return v"
	case 8:
		return "return " + name + "(args)"
	case 9:
		return name + "(args) + idx"
	case 10:
		return "fn(args)"
	default:
		return "return"
	}
}

func randPattern(t *testing.T, r *rand.Rand) pattern.Pattern {
	t.Helper()
	holes := propHoles()
	base := func() pattern.Pattern {
		src := randBaseSrc(r)
		p, err := pattern.CompileBase(src, holes)
		if err != nil {
			t.Fatalf("CompileBase(%q): %v", src, err)
		}
		return p
	}
	switch r.Intn(8) {
	case 0:
		return &pattern.Or{X: base(), Y: base()}
	case 1:
		co, err := pattern.CompileCallout("mc_is_branch_cond(v)")
		if err != nil {
			t.Fatal(err)
		}
		return &pattern.And{X: base(), Y: co}
	case 2:
		// Conjoined shapes exercise the atom-contradiction logic
		// (root-callee vs nested-callee merges).
		return &pattern.And{X: base(), Y: base()}
	default:
		return base()
	}
}

// randFuncSrc emits one C function over a fixed local vocabulary; the
// statement pool overlaps (and deliberately near-misses) the pattern
// shapes above.
func randFuncSrc(r *rand.Rand, name string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "int %s(int *q, int n) {\n\tint *p; int x; int y;\n\tp = q; x = n; y = n;\n", name)
	var emit func(depth int)
	stmt := func(depth int) {
		callee := propCallees[r.Intn(len(propCallees))]
		switch r.Intn(12) {
		case 0:
			fmt.Fprintf(&b, "\t%s(p);\n", callee)
		case 1:
			fmt.Fprintf(&b, "\tp = %s(p);\n", callee)
		case 2:
			b.WriteString("\tx = x + y;\n")
		case 3:
			b.WriteString("\t*p = x;\n")
		case 4:
			b.WriteString("\tx = p[y];\n")
		case 5:
			b.WriteString("\tif (x == 0) { y = 1; }\n")
		case 6:
			b.WriteString("\tif (!x) { y = 2; }\n")
		case 7:
			fmt.Fprintf(&b, "\tx = *%s(p);\n", callee)
		case 8:
			if depth < 2 {
				b.WriteString("\tif (x > y) {\n")
				emit(depth + 1)
				b.WriteString("\t} else {\n")
				emit(depth + 1)
				b.WriteString("\t}\n")
			}
		case 9:
			if depth < 2 {
				b.WriteString("\twhile (x < n) {\n")
				emit(depth + 1)
				b.WriteString("\tx = x + 1;\n\t}\n")
			}
		case 10:
			fmt.Fprintf(&b, "\treturn *%s(p);\n", callee)
		default:
			b.WriteString("\ty = y - 1;\n")
		}
	}
	emit = func(depth int) {
		for i, k := 0, 1+r.Intn(4); i < k; i++ {
			stmt(depth)
		}
	}
	emit(0)
	switch r.Intn(3) {
	case 0:
		b.WriteString("\treturn x;\n}\n")
	case 1:
		fmt.Fprintf(&b, "\treturn %s(p) == 0;\n}\n", propCallees[r.Intn(len(propCallees))])
	default:
		b.WriteString("\treturn 0;\n}\n")
	}
	return b.String()
}

func randProgram(t *testing.T, r *rand.Rand) *prog.Program {
	t.Helper()
	var b strings.Builder
	for _, c := range propCallees {
		fmt.Fprintf(&b, "int *%s(int *a);\n", c)
	}
	for i, k := 0, 1+r.Intn(3); i < k; i++ {
		b.WriteString(randFuncSrc(r, fmt.Sprintf("gen%d", i)))
	}
	p, err := prog.BuildSource(map[string]string{"gen.c": b.String()})
	if err != nil {
		t.Fatalf("generated program does not build: %v\n%s", err, b.String())
	}
	return p
}

// TestPrefilterSoundnessProperty: over a seeded random corpus, a block
// whose features admit no atom of a pattern must reject the pattern at
// every point (including the synthetic return point). The corpus is
// deterministic, so a failure is reproducible from the log.
func TestPrefilterSoundnessProperty(t *testing.T) {
	r := rand.New(rand.NewSource(2002))
	pats := make([]pattern.Pattern, 60)
	for i := range pats {
		pats[i] = randPattern(t, r)
	}
	checked, filtered := 0, 0
	for pi := 0; pi < 25; pi++ {
		p := randProgram(t, r)
		for _, fn := range p.All {
			for _, b := range fn.Graph.Blocks {
				points := b.Points
				feats := featsOf(b)
				for _, pat := range pats {
					admitted := false
					for _, a := range filterOf(pat) {
						if feats.admits(a) {
							admitted = true
							break
						}
					}
					if admitted {
						continue
					}
					filtered++
					// The filter claims this pattern cannot fire here:
					// every match attempt must fail.
					ctx := &pattern.Ctx{
						Types:      fn.Types,
						Callouts:   pattern.Builtins(),
						FuncName:   fn.Name,
						Locals:     fn.Graph.Locals,
						BranchCond: b.Cond,
						ReturnExpr: b.ReturnX,
					}
					for _, pt := range points {
						ctx.Point, ctx.ReturnPoint = pt, false
						checked++
						if _, ok := pat.Match(ctx, pattern.Bindings{}); ok {
							t.Fatalf("prefilter unsound: pattern %s filtered out but matches point %s in %s",
								pat, cc.ExprString(pt), fn.Name)
						}
					}
					if b.IsReturn {
						ctx.Point, ctx.ReturnPoint = b.ReturnX, true
						checked++
						if _, ok := pat.Match(ctx, pattern.Bindings{}); ok {
							t.Fatalf("prefilter unsound: pattern %s filtered out but matches return point of %s",
								pat, fn.Name)
						}
					}
				}
			}
		}
	}
	if filtered == 0 || checked == 0 {
		t.Fatalf("degenerate corpus: %d filtered pattern-blocks, %d match attempts", filtered, checked)
	}
	t.Logf("verified %d match attempts across %d filtered pattern-block pairs", checked, filtered)
}
