package core

// Randomized prefilter soundness (satellite of DESIGN.md §11): the
// pre-filter and the compiled dispatch built on it are pure
// accelerators — whenever the block features admit NO atom of a
// pattern ("mayFire == false"), the pattern must fail to Match at
// every point of that block, under any prior bindings. A violation
// here means the engine would silently drop a transition fire, so this
// property is checked over a generated corpus of pattern × program
// pairs rather than a handful of fixtures, under the empty prior and
// under priors that bind fn to each call of the function — the prior an
// instance carries into a dispatch, and the branch of the hole hook the
// mc_is_call_to refinement (filterOf) leans on. FuzzPrefilterSound
// drives the same generators from the fuzzer's bytes.

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/cc"
	"repro/internal/cfg"
	"repro/internal/pattern"
	"repro/internal/prog"
)

var propCallees = []string{"kfree", "alloc", "probe", "f0", "f1"}

// propOutside are callee names no generated program calls: a callout
// naming one can never hold.
var propOutside = []string{"gets", "panic"}

// chooser is what the generators draw from: a seeded *rand.Rand for
// the property test, the fuzzer's bytes for FuzzPrefilterSound.
type chooser interface{ Intn(n int) int }

// byteChooser draws one byte per choice and 0 once the bytes run out,
// so every input generates something and the generators terminate.
type byteChooser []byte

func (c *byteChooser) Intn(n int) int {
	if len(*c) == 0 {
		return 0
	}
	v := int((*c)[0]) % n
	*c = (*c)[1:]
	return v
}

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
func randBaseSrc(r chooser, names []string) string {
	name := names[r.Intn(len(names))]
	switch r.Intn(13) {
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
	case 11:
		return "return"
	default:
		// The call is matched but is no program point: sizeof does
		// not evaluate its operand.
		return "v = sizeof(" + name + "(args))"
	}
}

// randPattern composes base shapes, callouts and the §4 idiom
// "{ fn(args) } && ${ mc_is_call_to(fn, "name") }" — the name inside or
// outside names — in the orders and combinations the refinement must
// tell apart: the idiom alone, callout first, inside left And chains
// (fn bound on either side of the chain), under Or and after one, and
// with a foreign left conjunct that binds no fn.
func randPattern(t testing.TB, r chooser, names []string) pattern.Pattern {
	t.Helper()
	holes := propHoles()
	compile := func(src string) pattern.Pattern {
		p, err := pattern.CompileBase(src, holes)
		if err != nil {
			t.Fatalf("CompileBase(%q): %v", src, err)
		}
		return p
	}
	callout := func(src string) pattern.Pattern {
		co, err := pattern.CompileCallout(src)
		if err != nil {
			t.Fatal(err)
		}
		return co
	}
	base := func() pattern.Pattern { return compile(randBaseSrc(r, names)) }
	anyCall := func() pattern.Pattern { return compile("fn(args)") }
	branchCond := func() pattern.Pattern { return callout("mc_is_branch_cond(v)") }
	callTo := func() pattern.Pattern {
		all := append(names[:len(names):len(names)], propOutside...)
		return callout(fmt.Sprintf(`mc_is_call_to(fn, "%s")`, all[r.Intn(len(all))]))
	}
	idiom := func() pattern.Pattern { return &pattern.And{X: anyCall(), Y: callTo()} }
	switch r.Intn(15) {
	case 0:
		return &pattern.Or{X: base(), Y: base()}
	case 1:
		return &pattern.And{X: base(), Y: branchCond()}
	case 2:
		// Conjoined shapes exercise the atom-contradiction logic
		// (root-callee vs nested-callee merges).
		return &pattern.And{X: base(), Y: base()}
	case 3:
		return idiom()
	case 4:
		return &pattern.And{X: callTo(), Y: anyCall()}
	case 5:
		return &pattern.And{X: &pattern.And{X: anyCall(), Y: branchCond()}, Y: callTo()}
	case 6:
		return &pattern.And{X: &pattern.And{X: base(), Y: anyCall()}, Y: callTo()}
	case 7:
		return &pattern.And{X: idiom(), Y: callTo()}
	case 8:
		return &pattern.Or{X: idiom(), Y: idiom()}
	case 9:
		return &pattern.Or{X: idiom(), Y: base()}
	case 10:
		// A foreign hole: "{ kfree(v) } && ${ mc_is_call_to(fn, "alloc") }"
		// reads an fn the left side never binds, so only the prior can.
		return &pattern.And{X: base(), Y: callTo()}
	case 11:
		// One arm of the left Or binds fn, the other need not.
		return &pattern.And{X: &pattern.Or{X: anyCall(), Y: base()}, Y: callTo()}
	default:
		return base()
	}
}

// randFuncSrc emits one C function over a fixed local vocabulary; the
// statement pool overlaps (and deliberately near-misses) the pattern
// shapes above.
func randFuncSrc(r chooser, names []string, name string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "int %s(int *q, int n) {\n\tint *p; int x; int y;\n\tp = q; x = n; y = n;\n", name)
	var emit func(depth int)
	stmt := func(depth int) {
		callee := names[r.Intn(len(names))]
		switch r.Intn(13) {
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
		case 11:
			b.WriteString("\ty = y - 1;\n")
		default:
			fmt.Fprintf(&b, "\tp = sizeof(%s(p));\n", callee)
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
		fmt.Fprintf(&b, "\treturn %s(p) == 0;\n}\n", names[r.Intn(len(names))])
	default:
		b.WriteString("\treturn 0;\n}\n")
	}
	return b.String()
}

func randProgram(t testing.TB, r chooser, names []string) *prog.Program {
	t.Helper()
	var b strings.Builder
	for _, c := range names {
		fmt.Fprintf(&b, "int *%s(int *a);\n", c)
	}
	for i, k := 0, 1+r.Intn(3); i < k; i++ {
		b.WriteString(randFuncSrc(r, names, fmt.Sprintf("gen%d", i)))
	}
	p, err := prog.BuildSource(map[string]string{"gen.c": b.String()})
	if err != nil {
		t.Fatalf("generated program does not build: %v\n%s", err, b.String())
	}
	return p
}

// callsOf lists every call point of the function, in block order: the
// expressions a prior binds fn to.
func callsOf(fn *prog.Function) []*cc.CallExpr {
	var out []*cc.CallExpr
	for _, b := range fn.Graph.Blocks {
		for _, pt := range b.Points {
			if call, ok := pt.(*cc.CallExpr); ok {
				out = append(out, call)
			}
		}
	}
	return out
}

// fnPrior is the prior bindings fn to call, or the empty prior for nil.
func fnPrior(call *cc.CallExpr) pattern.Bindings {
	if call == nil {
		return pattern.Bindings{}
	}
	return pattern.Bindings{{Name: "fn", Binding: pattern.Binding{Expr: call}}}
}

// admitted reports whether the block's features admit some atom.
func admitted(feats *blockFeats, atoms []filterAtom) bool {
	for _, a := range atoms {
		if feats.admits(a) {
			return true
		}
	}
	return false
}

// matchIn tries pat under prior at every point of the block, the
// synthetic return point included, and says where it matched ("" if
// nowhere) and how many attempts that took.
func matchIn(fn *prog.Function, b *cfg.Block, pat pattern.Pattern, prior pattern.Bindings) (where string, attempts int) {
	ctx := &pattern.Ctx{
		Callouts:   pattern.Builtins(),
		FuncName:   fn.Name,
		Locals:     fn.Graph.Locals,
		BranchCond: b.Cond,
		ReturnExpr: b.ReturnX,
	}
	for _, pt := range b.Points {
		ctx.Point, ctx.ReturnPoint = pt, false
		attempts++
		if _, ok := pat.Match(ctx, prior); ok {
			return "point " + cc.ExprString(pt), attempts
		}
	}
	if b.IsReturn {
		ctx.Point, ctx.ReturnPoint = b.ReturnX, true
		attempts++
		if _, ok := pat.Match(ctx, prior); ok {
			return "the return point", attempts
		}
	}
	return "", attempts
}

// TestPrefilterSoundnessProperty: over a seeded random corpus, a block
// whose features admit no atom of a pattern must reject the pattern at
// every point (including the synthetic return point), under the empty
// prior and under a prior binding fn to each call of the function. The
// corpus is deterministic, so a failure is reproducible from the log.
func TestPrefilterSoundnessProperty(t *testing.T) {
	r := rand.New(rand.NewSource(2002))
	pats := make([]pattern.Pattern, 100)
	for i := range pats {
		pats[i] = randPattern(t, r, propCallees)
	}
	checked, filtered, refined := 0, 0, 0
	for pi := 0; pi < 25; pi++ {
		p := randProgram(t, r, propCallees)
		for _, fn := range p.All {
			priors := []*cc.CallExpr{nil}
			priors = append(priors, callsOf(fn)...)
			for _, b := range fn.Graph.Blocks {
				feats := &blockFeats{}
				feats.load(b)
				for _, pat := range pats {
					if admitted(feats, filterOf(pat, true)) {
						continue
					}
					filtered++
					// Filtered only because mc_is_call_to was read.
					if admitted(feats, filterOf(pat, false)) {
						refined++
					}
					// The filter claims this pattern cannot fire here:
					// every match attempt must fail, whatever the prior.
					for _, call := range priors {
						where, n := matchIn(fn, b, pat, fnPrior(call))
						checked += n
						if where != "" {
							t.Fatalf("prefilter unsound: pattern %s filtered out but matches %s in %s under prior %v",
								pat, where, fn.Name, fnPrior(call))
						}
					}
				}
			}
		}
	}
	if filtered == 0 || checked == 0 || refined == 0 {
		t.Fatalf("degenerate corpus: %d filtered pattern-blocks (%d by mc_is_call_to), %d match attempts",
			filtered, refined, checked)
	}
	t.Logf("verified %d match attempts across %d filtered pattern-block pairs (%d filtered by mc_is_call_to)",
		checked, filtered, refined)
}

// FuzzPrefilterSound is the property test with the fuzzer choosing: the
// pattern shape and its callee names from shape, one more callee name
// for both vocabularies from name, the function bodies from body, and
// the prior from prior (0 the empty prior, k > 0 fn bound to the
// function's call k-1, modulo their number). When no atom admits a
// block, no point of that block may match.
func FuzzPrefilterSound(f *testing.F) {
	f.Add([]byte{3, 1, 0}, "gets", []byte{1, 0, 0, 1}, uint8(1))
	f.Fuzz(func(t *testing.T, shape []byte, name string, body []byte, prior uint8) {
		names := propCallees
		if id := fuzzIdent(name); id != "" {
			names = append(names[:len(names):len(names)], id)
		}
		sc, bc := byteChooser(shape), byteChooser(body)
		pat := randPattern(t, &sc, names)
		p := randProgram(t, &bc, names)
		atoms := filterOf(pat, true)
		for _, fn := range p.All {
			var call *cc.CallExpr
			if calls := callsOf(fn); prior > 0 && len(calls) > 0 {
				call = calls[int(prior-1)%len(calls)]
			}
			var feats blockFeats
			for _, b := range fn.Graph.Blocks {
				if feats.load(b); admitted(&feats, atoms) {
					continue
				}
				if where, _ := matchIn(fn, b, pat, fnPrior(call)); where != "" {
					t.Fatalf("prefilter unsound: pattern %s filtered out but matches %s in %s under prior %v",
						pat, where, fn.Name, fnPrior(call))
				}
			}
		}
	})
}

// fuzzIdent turns the fuzzer's name into a C identifier that is no
// keyword and no generated name ("" when nothing of it is usable).
func fuzzIdent(s string) string {
	var b strings.Builder
	for _, c := range s {
		if b.Len() == 8 {
			break
		}
		if c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' || c == '_' {
			b.WriteRune(c)
		}
	}
	if b.Len() == 0 {
		return ""
	}
	return "z_" + b.String()
}
