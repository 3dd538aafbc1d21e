package pattern

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/cc"
)

func TestKnownMeta(t *testing.T) {
	for _, m := range []string{"any_expr", "any_scalar", "any_pointer", "any_arguments", "any_fn_call"} {
		if !KnownMeta(m) {
			t.Errorf("%s should be known", m)
		}
	}
	for _, m := range []string{"", "any_thing", "int", "pointer"} {
		if KnownMeta(m) {
			t.Errorf("%s should not be known", m)
		}
	}
}

func TestPatternStrings(t *testing.T) {
	holes := map[string]*Hole{"v": {Name: "v", Meta: MetaAnyPtr}}
	b1, _ := CompileBase("kfree(v)", holes)
	b2, _ := CompileBase("*v", holes)
	co, _ := CompileCallout(`mc_is_call_to(fn, "gets")`)
	cases := []struct {
		p    Pattern
		want string
	}{
		{b1, "{ kfree(v) }"},
		{&And{X: b1, Y: co}, `{ kfree(v) } && ${mc_is_call_to(fn, "gets")}`},
		{&Or{X: b1, Y: b2}, "{ kfree(v) } || { *v }"},
		{EndOfPath{}, "$end_of_path$"},
	}
	for _, c := range cases {
		if got := c.p.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
}

func TestBindingString(t *testing.T) {
	e, _ := cc.ParseExprString("a + b")
	b := Binding{Expr: e}
	if b.String() != "a + b" {
		t.Errorf("expr binding = %q", b.String())
	}
	x, _ := cc.ParseExprString("x")
	y, _ := cc.ParseExprString("y[2]")
	argsB := Binding{Args: []cc.Expr{x, y}}
	if argsB.String() != "x, y[2]" {
		t.Errorf("args binding = %q", argsB.String())
	}
}

// matchAt matches a pattern against a standalone expression with
// permissive (unknown) typing.
func matchAt(t *testing.T, p Pattern, src string) (Bindings, bool) {
	t.Helper()
	e, err := cc.ParseExprString(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	ctx := &Ctx{Point: e, Callouts: Builtins()}
	return p.Match(ctx, Bindings{})
}

// TestMatchAllNodeKinds drives matchExpr through every template node
// kind.
func TestMatchAllNodeKinds(t *testing.T) {
	holes := map[string]*Hole{
		"e": {Name: "e", Meta: MetaAnyExpr},
	}
	cases := []struct {
		pattern string
		match   []string
		reject  []string
	}{
		{"x + e", []string{"x + 1", "x + y"}, []string{"y + 1", "x - 1"}},
		{"-e", []string{"-5", "-x"}, []string{"+x", "~x"}},
		{"e++", []string{"i++"}, []string{"++i", "i--"}},
		{"a[e]", []string{"a[0]", "a[i + 1]"}, []string{"b[0]", "a"}},
		{"s.len", []string{"s.len"}, []string{"s->len", "t.len", "s.cap"}},
		{"s->len", []string{"s->len"}, []string{"s.len"}},
		{"e ? 1 : 0", []string{"x ? 1 : 0"}, []string{"x ? 0 : 1"}},
		{"f(e, 2)", []string{"f(1, 2)", "f(x, 2)"}, []string{"f(1)", "f(1, 3)", "g(1, 2)"}},
		{"(char)e", []string{"(char)x"}, []string{"(int)x", "x"}},
		{"sizeof e", []string{"sizeof x"}, []string{"sizeof(int)"}},
		{"sizeof(long)", []string{"sizeof(long)"}, []string{"sizeof(short)", "sizeof x"}},
		{`"lit"`, []string{`"lit"`}, []string{`"other"`, "x"}},
		{"'a'", []string{"'a'"}, []string{"'b'", "97"}},
		{"1.5", []string{"1.5"}, []string{"1.25"}},
		{"e = 3", []string{"x = 3", "a[0] = 3"}, []string{"x = 4", "x += 3"}},
		{"e += 1", []string{"x += 1"}, []string{"x -= 1", "x = 1"}},
	}
	for _, c := range cases {
		p, err := CompileBase(c.pattern, holes)
		if err != nil {
			t.Errorf("compile %q: %v", c.pattern, err)
			continue
		}
		for _, m := range c.match {
			if _, ok := matchAt(t, p, m); !ok {
				t.Errorf("{%s} should match %q", c.pattern, m)
			}
		}
		for _, r := range c.reject {
			if _, ok := matchAt(t, p, r); ok {
				t.Errorf("{%s} should not match %q", c.pattern, r)
			}
		}
	}
}

// TestMatchPriorBoundHoleSkipsTypeCheck: a hole the prior already binds
// is held to equality with that binding, not to its type constraint, so
// a point that fails the constraint still matches under the right
// prior.
func TestMatchPriorBoundHoleSkipsTypeCheck(t *testing.T) {
	holes := map[string]*Hole{"fn": {Name: "fn", Meta: MetaAnyFnCall}}
	p, err := CompileBase("fn + 1", holes)
	if err != nil {
		t.Fatal(err)
	}
	target, _ := cc.ParseExprString("y + 1")
	yExpr, _ := cc.ParseExprString("y")
	ctx := &Ctx{Point: target, Callouts: Builtins()}
	if _, ok := p.Match(ctx, Bindings{}); ok {
		t.Error("unbound any_fn_call must reject a non-call")
	}
	if _, ok := p.Match(ctx, Bindings{{"fn", Binding{Expr: yExpr}}}); !ok {
		t.Error("a prior-bound hole skips the type check")
	}
}

func TestMatchCommaTemplate(t *testing.T) {
	holes := map[string]*Hole{"e": {Name: "e", Meta: MetaAnyExpr}}
	p, err := CompileBase("a = 1, e", holes)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := matchAt(t, p, "a = 1, b"); !ok {
		t.Error("comma pattern should match")
	}
	if _, ok := matchAt(t, p, "a = 1"); ok {
		t.Error("comma pattern needs a comma target")
	}
}

func TestRepeatedArgsHole(t *testing.T) {
	holes := map[string]*Hole{"args": {Name: "args", Meta: MetaAnyArgs}}
	// The same any_arguments hole twice: both call sites must have
	// equal argument lists.
	both, err := CompileBase("pair(first(args), second(args))", holes)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := matchAt(t, both, "pair(first(1, x), second(1, x))"); !ok {
		t.Error("equal arg lists should match")
	}
	if _, ok := matchAt(t, both, "pair(first(1, x), second(1, y))"); ok {
		t.Error("different arg lists must not match")
	}
	if _, ok := matchAt(t, both, "pair(first(1), second(1, 2))"); ok {
		t.Error("different arg counts must not match")
	}
}

func TestArgsHoleOutsideCallRejected(t *testing.T) {
	holes := map[string]*Hole{"args": {Name: "args", Meta: MetaAnyArgs}}
	p, err := CompileBase("args + 1", holes)
	if err != nil {
		t.Fatal(err)
	}
	// any_arguments cannot fill an expression position.
	if _, ok := matchAt(t, p, "x + 1"); ok {
		t.Error("any_arguments must not match a plain expression")
	}
}

func TestBuiltinEdgeCases(t *testing.T) {
	reg := Builtins()
	e, _ := cc.ParseExprString("f(x)")
	id, _ := cc.ParseExprString("x")
	ctx := &Ctx{Point: e, Callouts: reg}

	// Wrong arity / unbound / wrong kinds all answer false, never panic.
	for name, fn := range reg {
		if fn(ctx, nil) {
			t.Errorf("%s(no args) should be false", name)
		}
		if fn(ctx, []CalloutArg{{Bound: true}}) && name != "mc_not_string_constant" {
			// A bound-but-empty binding should not satisfy most
			// predicates.
			t.Errorf("%s(empty binding) = true", name)
		}
	}

	// mc_name_contains.
	if !reg["mc_name_contains"](ctx, []CalloutArg{
		{Bound: true, Binding: Binding{Expr: e}}, {IsStr: true, Str: "f("},
	}) {
		t.Error("mc_name_contains should find substring")
	}
	// mc_is_arg_count.
	if !reg["mc_is_arg_count"](ctx, []CalloutArg{
		{Bound: true, Binding: Binding{Expr: e}}, {IsInt: true, Int: 1},
	}) {
		t.Error("mc_is_arg_count(f(x), 1) should hold")
	}
	if reg["mc_is_arg_count"](ctx, []CalloutArg{
		{Bound: true, Binding: Binding{Expr: e}}, {IsInt: true, Int: 2},
	}) {
		t.Error("mc_is_arg_count(f(x), 2) must not hold")
	}
	// mc_is_pointer with no type info: unknown is not a pointer for
	// this predicate (strict).
	if reg["mc_is_pointer"](ctx, []CalloutArg{{Bound: true, Binding: Binding{Expr: id}}}) {
		t.Error("untyped ident should not satisfy mc_is_pointer")
	}
	// mc_is_branch_cond without a branch context.
	if reg["mc_is_branch_cond"](ctx, []CalloutArg{{Bound: true, Binding: Binding{Expr: id}}}) {
		t.Error("no branch context: mc_is_branch_cond must be false")
	}
	ctx2 := &Ctx{Point: id, Callouts: reg, BranchCond: id}
	if !reg["mc_is_branch_cond"](ctx2, []CalloutArg{{Bound: true, Binding: Binding{Expr: id}}}) {
		t.Error("point == branch cond should satisfy mc_is_branch_cond")
	}
	// mc_is_local and mc_is_returned read the context's other two
	// fields the same way: false above, where neither was set.
	ctx3 := &Ctx{Point: e, Callouts: reg, Locals: map[string]bool{"x": true}, ReturnExpr: id}
	for _, name := range []string{"mc_is_local", "mc_is_returned"} {
		if !reg[name](ctx3, []CalloutArg{{Bound: true, Binding: Binding{Expr: id}}}) {
			t.Errorf("%s(x) should hold with x local and returned", name)
		}
		if reg[name](ctx3, []CalloutArg{{Bound: true, Binding: Binding{Expr: e}}}) {
			t.Errorf("%s(f(x)) must not hold", name)
		}
	}
}

func TestCalloutMissingFunction(t *testing.T) {
	co, _ := CompileCallout("not_registered(x)")
	e, _ := cc.ParseExprString("x")
	ctx := &Ctx{Point: e, Callouts: Builtins()}
	if _, ok := co.Match(ctx, Bindings{}); ok {
		t.Error("unregistered callout must not match")
	}
}

// bindingsEqual compares two binding lists entry by entry, in order.
func bindingsEqual(a, b Bindings) bool {
	return slices.EqualFunc(a, b, func(x, y Bound) bool {
		return x.Name == y.Name && cc.EqualExpr(x.Expr, y.Expr) && slices.EqualFunc(x.Args, y.Args, cc.EqualExpr)
	})
}

// TestMatchNeverWritesPrior pins the contract the engine's shared
// priors and the binder's copy-at-first-bind both rest on, over the
// node-kind corpus and the combinators, under the empty prior and priors
// that agree and conflict with what each hole would bind: Match leaves
// prior as it found it — length and entries — whether it succeeds or
// fails, a success has prior as its prefix, and a failure returns nil.
// One context serves every attempt, as in the engine, so each attempt
// starts on a buffer the last one wrote.
func TestMatchNeverWritesPrior(t *testing.T) {
	holes := map[string]*Hole{
		"e":    {Name: "e", Meta: MetaAnyExpr},
		"v":    {Name: "v", Meta: MetaAnyExpr},
		"fn":   {Name: "fn", Meta: MetaAnyFnCall},
		"args": {Name: "args", Meta: MetaAnyArgs},
	}
	base := func(src string) Pattern {
		p, err := CompileBase(src, holes)
		if err != nil {
			t.Fatalf("compile %q: %v", src, err)
		}
		return p
	}
	callout := func(src string) Pattern {
		p, err := CompileCallout(src)
		if err != nil {
			t.Fatalf("compile %q: %v", src, err)
		}
		return p
	}
	kfree, anyCall := base("kfree(v)"), base("fn(args)")
	isKfree, isGets := callout(`mc_is_call_to(fn, "kfree")`), callout(`mc_is_call_to(fn, "gets")`)
	yes, no := callout("1"), callout("0")
	pats := []Pattern{
		kfree, anyCall, base("pair(first(args), second(args))"), base("return v"), base("return"),
		yes, no, EndOfPath{},
		&And{X: anyCall, Y: isKfree},
		&And{X: anyCall, Y: isGets},
		&And{X: kfree, Y: no},
		&Or{X: kfree, Y: anyCall},
		&Or{X: no, Y: anyCall},
		&Or{X: no, Y: no},
		&And{X: &Or{X: kfree, Y: anyCall}, Y: isKfree},
	}
	for _, src := range []string{
		"x + e", "-e", "e++", "a[e]", "s.len", "s->len", "e ? 1 : 0", "f(e, 2)", "(char)e",
		"sizeof e", "sizeof(long)", `"lit"`, "'a'", "1.5", "e = 3", "e += 1", "e + e", "a = 1, e",
	} {
		pats = append(pats, base(src))
	}
	var points []cc.Expr
	for _, src := range []string{
		"x + 1", "x + y", "y + 1", "x - 1", "x + x", "a[0] + a[0]", "-5", "-x", "+x", "~x",
		"i++", "++i", "a[0]", "a[i + 1]", "b[0]", "a", "s.len", "s->len", "t.len",
		"x ? 1 : 0", "x ? 0 : 1", "f(1, 2)", "f(x, 2)", "f(1)", "g(1, 2)", "f()",
		"(char)x", "(int)x", "sizeof x", "sizeof(int)", "sizeof(long)", `"lit"`, `"other"`,
		"'a'", "'b'", "97", "1.5", "1.25", "x = 3", "a[0] = 3", "x = 4", "x += 3", "x += 1",
		"a = 1, b", "a = 1", "kfree(p)", "kfree(p, q)", "gets(buf)",
		"pair(first(1, x), second(1, x))", "pair(first(1, x), second(1, y))",
	} {
		e, err := cc.ParseExprString(src)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		points = append(points, e)
	}
	points = append(points, nil) // bare "return;" and end-of-path dispatches
	xExpr, _ := cc.ParseExprString("x")
	pExpr, _ := cc.ParseExprString("p")
	zExpr, _ := cc.ParseExprString("z")
	priors := []Bindings{
		nil,
		{{"e", Binding{Expr: xExpr}}, {"v", Binding{Expr: pExpr}}},
		{{"e", Binding{Expr: zExpr}}, {"v", Binding{Expr: zExpr}}},
		{{"e", Binding{Args: []cc.Expr{xExpr}}}, {"args", Binding{Args: []cc.Expr{pExpr}}}}, // an args-kind binding against an expr hole
	}
	successes, extended := 0, 0
	ctx := Ctx{Callouts: Builtins()}
	for _, p := range pats {
		for _, pt := range points {
			for _, kind := range []Ctx{{}, {ReturnPoint: true}, {EndOfPath: true}} {
				ctx.Point, ctx.ReturnPoint, ctx.EndOfPath = pt, kind.ReturnPoint, kind.EndOfPath
				for i, prior := range priors {
					label := p.String() + " at " + cc.ExprString(pt) + " prior#" + string(rune('0'+i))
					before := slices.Clone(prior)
					got, ok := p.Match(&ctx, prior)
					if !bindingsEqual(prior, before) {
						t.Fatalf("%s: Match wrote its prior: %v, was %v", label, prior, before)
					}
					if !ok {
						if got != nil {
							t.Errorf("%s: failed match returned %v, want nil", label, got)
						}
						continue
					}
					successes++
					if len(got) > len(prior) {
						extended++
					}
					if len(got) < len(prior) || !bindingsEqual(got[:len(prior)], prior) {
						t.Errorf("%s: result %v does not start with its prior %v", label, got, prior)
					}
				}
			}
		}
	}
	if successes < 100 || extended < 50 {
		t.Errorf("only %d successful matches, %d of them binding: the corpus no longer exercises the success path", successes, extended)
	}
}

// TestFailedArmLeavesNoTrace: every arm of an Or starts from the same
// prior, which after a left conjunct is a view of the buffer the failed
// arm has just written past.
func TestFailedArmLeavesNoTrace(t *testing.T) {
	holes := map[string]*Hole{}
	for _, n := range []string{"a", "b", "w"} {
		holes[n] = &Hole{Name: n, Meta: MetaAnyExpr}
	}
	base := func(src string) Pattern {
		p, err := CompileBase(src, holes)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	// The first arm binds b = p and then fails on 0.
	p := &And{X: base("h(a, w)"), Y: &Or{X: base("h(b, 0)"), Y: base("h(a, b)")}}
	pt, _ := cc.ParseExprString("h(p, q)")
	got, ok := p.Match(&Ctx{Point: pt}, nil)
	if !ok {
		t.Fatalf("%s must match h(p, q)", p)
	}
	var text []string
	for _, b := range got {
		text = append(text, b.Name+"="+b.String())
	}
	if want := []string{"a=p", "w=q", "b=q"}; !slices.Equal(text, want) {
		t.Errorf("%s at h(p, q) bound %v, want %v", p, text, want)
	}
}

// TestMatchAllocs: no match allocates once the context's buffer has
// grown to the pattern's holes — not an attempt that fails before any
// hole binds (the wrong root node kind, the wrong callee name), not a
// bind, which lands in that buffer, and not a callout, which returns
// the bindings it was handed.
func TestMatchAllocs(t *testing.T) {
	holes := map[string]*Hole{"v": {Name: "v", Meta: MetaAnyExpr}}
	p, err := CompileBase("kfree(v)", holes)
	if err != nil {
		t.Fatal(err)
	}
	isLocal, err := CompileCallout("mc_is_local(v)")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name    string
		pat     Pattern
		point   string
		matches bool
	}{
		{"mismatch-root", p, "x + 1", false},
		{"mismatch-callee", p, "kmalloc(n)", false},
		{"match", p, "kfree(p)", true},
		{"match-and-callout", &And{X: p, Y: isLocal}, "kfree(p)", true},
	} {
		e, err := cc.ParseExprString(c.point)
		if err != nil {
			t.Fatal(err)
		}
		ctx := &Ctx{Point: e, Callouts: Builtins(), Locals: map[string]bool{"p": true}}
		// The warm-up: the first bind and the first callout grow the
		// context's buffers.
		if _, ok := c.pat.Match(ctx, nil); ok != c.matches {
			t.Fatalf("%s: %s at %q matched=%v", c.name, c.pat, c.point, ok)
		}
		if got := testing.AllocsPerRun(100, func() { c.pat.Match(ctx, nil) }); got != 0 {
			t.Errorf("%s: %.0f allocations per Match, want 0", c.name, got)
		}
	}
}

func TestSubstituteHolesCoverage(t *testing.T) {
	holes := map[string]*Hole{"v": {Name: "v", Meta: MetaAnyExpr}}
	// Exercise the remaining substitution arms: cond, comma, cast,
	// sizeof-expr, assign.
	srcs := []string{
		"v ? v : 0",
		"v, v",
		"(char)v",
		"sizeof v",
		"v = v",
		"v[v].f",
		"g(v)(v)",
	}
	for _, src := range srcs {
		b, err := CompileBase(src, holes)
		if err != nil {
			t.Errorf("compile %q: %v", src, err)
			continue
		}
		count := 0
		cc.WalkExpr(b.Tmpl, func(e cc.Expr) bool {
			if _, ok := e.(*cc.HoleExpr); ok {
				count++
			}
			return true
		})
		if count == 0 {
			t.Errorf("%q: no holes substituted", src)
		}
		if strings.Contains(cc.ExprString(b.Tmpl), "v") && count < strings.Count(src, "v") {
			t.Errorf("%q: some v left unsubstituted: %s", src, cc.ExprString(b.Tmpl))
		}
	}
}
