package repro

// The skim's oracle (DESIGN.md §8): pass 1 skims every function body
// into a token span and the names of the functions it calls, and a unit
// whose bodies no checker runs is never parsed. The call graph, the
// units and the unit keys are built from the skim, so it must say what
// the parser and the CFG say: the same callees, the same body once
// parsed on demand, a new digest for every edit that gives the parsed
// definition a new one, and the same first error, met in pass 1.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/cache"
	"repro/internal/cc"
	"repro/internal/cfg"
	"repro/internal/prog"
	"repro/internal/workload"
	"repro/mc"
)

// skimCases are bodies at the edges of the skim's grammar, each one a
// file, with the names of the direct calls the CFG keeps, per function.
var skimCases = []struct{ name, src, callees string }{
	{"after-return", "int g(void); int f(void) { return 0; g(); }", "f:"},
	{"local-prototype", "int g(int); int f(void) { int g(int); int h(int), x = g(1); return x; }", "f:g"},
	{"goto", "int a(void); int b(void); int c(void); int f(int x) { goto L; a(); L: b(); if (x) goto M; return 0; M: c(); return 1; }", "f:b,c"},
	{"dead-label", "int a(void); int f(void) { return 0; L: a(); return 1; }", "f:"},
	{"switch-head", "int a(void); int b(void); int f(int x) { switch (x) { a(); case 1: b(); } return 0; }", "f:b"},
	{"forever", "int a(void); int b(void); int f(void) { for (;;) { a(); } b(); }", "f:a"},
	{"forever-break", "int a(void); int b(void); int f(void) { for (;;) { if (a()) break; } b(); return 0; }", "f:a,b"},
	{"while-one", "int a(void); int b(void); int f(void) { while (1) { a(); } b(); return 0; }", "f:a,b"},
	{"do-break", "int a(void); int c(void); int f(void) { do { a(); break; } while (c()); return 0; }", "f:a"},
	{"do-continue", "int a(void); int c(void); int f(void) { do { a(); continue; } while (c()); return 0; }", "f:a,c"},
	{"if-both-return", "int a(void); int f(int x) { if (x) return 1; else return 2; a(); }", "f:"},
	{"sizeof", "int g(int); int h(int); int f(int x) { return sizeof(g(x)) + sizeof h(x) + sizeof(int) * h(x); }", "f:h"},
	{"sizeof-cast", "int g(int); int f(int x) { return sizeof -(long)g(x) + sizeof (x)[0] + g(1); }", "f:g"},
	{"parenthesized", "int g(int); int h(int); int f(int x) { return (g)(x) + ((h))(x); }", "f:g,h"},
	{"members", "struct ops { int (*g)(int); }; int g(int); int f(struct ops *o, struct ops s) { return o->g(1) + s.g(2); }", "f:"},
	{"casts", "typedef int T; int g(int); int h(int); int f(int x) { return (int)g(x) + (T)h(x) + (T *)0 != 0; }", "f:g,h"},
	{"typedef-call", "typedef int T; int T2(int); int f(int x) { T y = T2(x); return y; }", "f:T2"},
	{"initializers", "int g(int); int h(int); int f(void) { int a = g(1), b[2] = { h(2), 3 }; return a + b[0]; }", "f:g,h"},
	{"for", "int a(int); int b(void); int c(int); int f(void) { for (int i = a(0); i < b(); i = c(i)) { continue; } return 0; }", "f:a,b,c"},
	{"case-value", "enum { K = 1 }; int g(int); int f(int x) { switch (x) { case K: g(x); break; default: break; } return 0; }", "f:g"},
	{"nested", "int a(int); int b(int); int c(void); int f(void) { return a(b(c())) ? b(0) : a(1); }", "f:a,b,c"},
	{"labels-in-switch", "int a(void); int f(int x) { switch (x) { case 1: L: a(); break; } goto L; }", "f:a"},
	{"statics", "static int g(void) { return 1; } int f(void) { return g(); }", "g: f:g"},
	{"local-typedef", "int g(int); int f(void) { typedef int T; T x = g(1); return x; }", "f:g"},
	{"local-struct", "int g(int); int f(void) { struct s { int a; } v; v.a = g(1); return v.a; }", "f:g"},
	{"array-sizeof", "struct s; int g(int); int f(void) { int a[sizeof(struct s *)]; return g(a[0]); } struct s { int x; };", "f:g"},
	{"late-typedef", "int g(int); int f(int T, int x) { T * x; return g(T); } typedef int T;", "f:g"},
	{"late-tag", "int g(int); int f(void) { struct s *p = 0; return g(p != 0); } struct s { int a; };", "f:g"},
	{"shadowed-typedef", "typedef int T; int g(int); int f(void) { T x = 1; return g(x); } typedef long U; typedef char T2;", "f:g"},
	{"returns-function-pointer", "int g(int); void (*signal(int, void (*)(int)))(int); int (*pick(void))(int) { return g; } int f(void) { signal(2, 0); return pick()(1); }", "pick: f:pick,signal"},
}

// cfgCallees lists the names of the direct calls among the points of
// g's blocks, each once, sorted.
func cfgCallees(g *cfg.Graph) []string {
	var out []string
	for _, b := range g.Blocks {
		for _, c := range cfg.CallsIn(b) {
			if name := cc.CalleeName(c); name != "" && !slices.Contains(out, name) {
				out = append(out, name)
			}
		}
	}
	sort.Strings(out)
	return out
}

// cfgAssigns reports whether some point of the graph is an assignment.
func cfgAssigns(g *cfg.Graph) bool {
	for _, b := range g.Blocks {
		for _, pt := range b.Points {
			if _, ok := pt.(*cc.AssignExpr); ok {
				return true
			}
		}
	}
	return false
}

// skimTrees is every source tree the oracle runs over.
func skimTrees(t *testing.T) map[string]map[string]string {
	trees := map[string]map[string]string{}
	for _, glob := range []string{"testdata/corpus/*.c", "testdata/rootorder/*.c"} {
		paths, err := filepath.Glob(glob)
		if err != nil || len(paths) == 0 {
			t.Fatalf("%s: %v (%d files)", glob, err, len(paths))
		}
		srcs := map[string]string{}
		for _, p := range paths {
			data, err := os.ReadFile(p)
			if err != nil {
				t.Fatal(err)
			}
			srcs[filepath.Base(p)] = string(data)
		}
		trees[glob] = srcs
	}
	for _, c := range skimCases {
		trees["case "+c.name] = map[string]string{c.name + ".c": c.src}
	}
	mixed, _ := workload.MixedTree(3, 10, 2002)
	trees["mixed"] = mixed
	trees["call-rich"] = workload.CallRichTree()
	trees["linux-like"] = workload.LinuxLike(3, 12, 2002)
	return trees
}

// parseEach parses each file whole (cc.ParseFile), in name order: the
// oracle pass 1 is held to. Its error is the first file's that fails.
func parseEach(srcs map[string]string) ([]*cc.File, error) {
	names := make([]string, 0, len(srcs))
	for n := range srcs {
		names = append(names, n)
	}
	sort.Strings(names)
	files := make([]*cc.File, len(names))
	for i, n := range names {
		f, err := cc.ParseFile(n, srcs[n])
		if err != nil {
			return nil, fmt.Errorf("parse %s: %w", n, err)
		}
		files[i] = f
	}
	return files, nil
}

// checkSkim runs the oracle over one tree and returns how many bodies
// the skim left to the parser.
func checkSkim(t *testing.T, name string, srcs map[string]string) (skimmed, eager int) {
	t.Helper()
	parsed, err := parseEach(srcs)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	files, err := cc.SkimFiles(srcs, 1)
	if err != nil {
		t.Fatalf("%s: skim: %v", name, err)
	}
	p := prog.Build(parsed...)
	q := prog.Assemble(files...)
	if len(p.All) != len(q.All) {
		t.Fatalf("%s: %d functions parsed, %d skimmed", name, len(p.All), len(q.All))
	}
	for i, fn := range p.All {
		sk := q.All[i]
		// The skim's names are the CFG's direct calls, so the call graph
		// links the same functions.
		if sk.Graph == nil {
			skimmed++
			names := slices.Clone(sk.Decl.Skim.Callees)
			sort.Strings(names)
			if want := cfgCallees(fn.Graph); !slices.Equal(names, want) {
				t.Errorf("%s: %s: skim calls %v, the CFG %v", name, fn.Name, names, want)
			}
			// A body the skim says assigns nothing has no assignment
			// point (the silent-unit rule leans on it).
			if !sk.Decl.Skim.Assigns && cfgAssigns(fn.Graph) {
				t.Errorf("%s: %s: the skim finds no assignment, the CFG has one", name, fn.Name)
			}
		} else {
			eager++
		}
		if got, want := funcNames(sk.Callees), funcNames(fn.Callees); got != want {
			t.Errorf("%s: %s: skimmed callees %s, parsed %s", name, fn.Name, got, want)
		}
	}
	if got, want := rootsAndUnits(q), rootsAndUnits(p); got != want {
		t.Errorf("%s: skimmed program\n%s\nparsed program\n%s", name, got, want)
	}

	// A body parsed on demand is the body parsed in place, byte for
	// byte; bodies are parsed last to first, so no parse sees a scope
	// another left behind.
	for i := len(files) - 1; i >= 0; i-- {
		fns := files[i].Funcs()
		for j := len(fns) - 1; j >= 0; j-- {
			if err := cc.ParseBody(fns[j], new(cc.Arena)); err != nil {
				t.Fatalf("%s: %s: %v", name, fns[j].Name, err)
			}
		}
	}
	for i, f := range files {
		if got, want := cc.EmitFile(f), cc.EmitFile(parsed[i]); !bytes.Equal(got, want) {
			t.Errorf("%s: %s parsed on demand emits\n%s\nparsed whole\n%s", name, f.Name, got, want)
		}
	}
	return skimmed, eager
}

func funcNames(fns []*prog.Function) string {
	var names []string
	for _, fn := range fns {
		names = append(names, prog.FuncID(fn))
	}
	sort.Strings(names)
	return strings.Join(names, ",")
}

func rootsAndUnits(p *prog.Program) string {
	var sb strings.Builder
	for _, r := range p.Roots {
		fmt.Fprintf(&sb, "root %s\n", prog.FuncID(r))
	}
	for _, u := range p.Units() {
		fmt.Fprintf(&sb, "unit %s\n", funcNames(u.Funcs))
	}
	return sb.String()
}

// TestSkimMatchesParse is the skim's oracle over the corpus, the
// root-order tree, the workload generators, every edit of an edit
// stream, and the grammar's edge cases: the same callees as the CFG,
// code after a return and local prototypes included; the same bodies,
// parsed on demand; and a new digest wherever the parsed definition's
// HashDecl is new.
func TestSkimMatchesParse(t *testing.T) {
	skimmed, eager := 0, 0
	for name, srcs := range skimTrees(t) {
		s, e := checkSkim(t, name, srcs)
		skimmed, eager = skimmed+s, eager+e
	}
	for _, c := range skimCases {
		f, err := cc.SkimFile(new(cc.Arena), c.name+".c", c.src)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		// The calls the skim names; a body left to the parser names the
		// calls of its CFG.
		var got []string
		for _, fn := range prog.Assemble(f).All {
			names := slices.Clone(fn.Decl.Skim.Callees)
			sort.Strings(names)
			if fn.Graph != nil {
				names = cfgCallees(fn.Graph)
			}
			got = append(got, fn.Name+":"+strings.Join(names, ","))
		}
		if g := strings.Join(got, " "); g != c.callees {
			t.Errorf("%s: callees %q, want %q", c.name, g, c.callees)
		}
	}

	// Every edit of an edit stream: a function whose parsed definition
	// hashes anew digests anew when skimmed.
	srcs, _ := workload.MixedTree(3, 10, 2002)
	prev := digests(t, srcs)
	for i, e := range workload.RandomEdits(srcs, []string{"f0_fn_0", "f1_fn_1"}, 12, 99) {
		srcs = e.Apply(srcs)
		name := fmt.Sprintf("edit %d: %s", i, e.Name)
		s, x := checkSkim(t, name, srcs)
		skimmed, eager = skimmed+s, eager+x
		cur := digests(t, srcs)
		for id, d := range cur {
			if old, ok := prev[id]; ok && old.decl != d.decl && old.skim == d.skim {
				t.Errorf("%s: %s: HashDecl moved, the skim's digest did not", name, id)
			}
		}
		prev = cur
	}
	t.Logf("%d bodies skimmed, %d left to the parser", skimmed, eager)
	if skimmed == 0 || eager > skimmed/10 {
		t.Errorf("%d bodies skimmed, %d left to the parser: the skim covers too little", skimmed, eager)
	}
}

type digestPair struct {
	decl string
	skim [32]byte
}

// digests maps each function of the tree to its parsed definition's
// HashDecl and its skimmed definition's Hasher.Func digest.
func digests(t *testing.T, srcs map[string]string) map[string]digestPair {
	parsed, err := parseEach(srcs)
	if err != nil {
		t.Fatal(err)
	}
	files, err := cc.SkimFiles(srcs, 1)
	if err != nil {
		t.Fatal(err)
	}
	h := cc.NewHasher()
	out := map[string]digestPair{}
	for i, f := range files {
		for j, fd := range f.Funcs() {
			out[f.Name+"\x00"+fd.Name] = digestPair{cc.HashDecl(parsed[i].Funcs()[j]), h.Func(fd)}
		}
	}
	return out
}

// inGoodFile wraps body in a file that parses around it.
func inGoodFile(body string) string {
	return "int x, y, z, w, a[2]; int f(int);\nint g(void) { " + body + " }\nint h(void) { return f(1); }\n"
}

// skimErrorCases are files that do not parse, each with the message of
// its first error in source order: the error sits in a declaration, in
// a body, or in both, in either order. The bodies inGoodFile wraps have
// balanced braces, so the skim itself must find their errors.
var skimErrorCases = []struct{ src, err string }{
	{"int f(void) { return 1 } int g(void) { return 2; }", "e.c:1:24: expected ;, found }"},
	{"int f(void) { return 1 } int x = ;", "e.c:1:24: expected ;, found }"},
	{"int f(void) { return 1; } int x = ; int g(void) { return 2 }", "e.c:1:35: expected expression, found ;"},
	{"int f(void) { if }", "e.c:1:18: expected (, found }"},
	{"void f(void) { L:; L:; }", "e.c:1:20: duplicate label L"},
	{"int f(void) { typedef int T; T x = ; }", "e.c:1:36: expected expression, found ;"},
	{"int f(void) { x = (; }", "e.c:1:20: expected expression, found ;"},
	{"int f(void) { return 0;", "e.c:1:24: unexpected EOF in block"},
	{"int f(void) { return 0; } }", "e.c:1:27: expected type specifier, found }"},
	{"int A(){}int A(){00}", "e.c:1:20: expected ;, found }"},
	{inGoodFile("return x x;"), `e.c:2:24: expected ;, found identifier "x"`},
	{inGoodFile("int y = ;"), "e.c:2:23: expected expression, found ;"},
	{inGoodFile("short double y;"), `e.c:2:28: invalid type specifiers "short double"`},
	{inGoodFile("static extern int y;"), "e.c:2:22: conflicting storage classes"},
	{inGoodFile("int y z;"), `e.c:2:21: expected ;, found identifier "z"`},
	{inGoodFile("return sizeof(x x);"), `e.c:2:31: expected ), found identifier "x"`},
	{inGoodFile("f(x x);"), `e.c:2:19: expected ), found identifier "x"`},
	{inGoodFile("return (x ? 1);"), "e.c:2:28: expected :, found )"},
	{inGoodFile("x ? 1 : ;"), "e.c:2:23: expected expression, found ;"},
	{inGoodFile("x + ;"), "e.c:2:19: expected expression, found ;"},
	{inGoodFile("a[];"), "e.c:2:17: expected expression, found ]"},
	{inGoodFile("x.;"), "e.c:2:17: expected identifier, found ;"},
	{inGoodFile("(int) ;"), "e.c:2:21: expected expression, found ;"},
	{inGoodFile("int y[x x];"), `e.c:2:23: expected ], found identifier "x"`},
	{inGoodFile("1 2;"), `e.c:2:17: expected ;, found integer literal "2"`},
	{inGoodFile("x ++ y;"), `e.c:2:20: expected ;, found identifier "y"`},
	{inGoodFile("x ? y : z : w;"), "e.c:2:25: expected ;, found :"},
	{inGoodFile("x = = y;"), "e.c:2:19: expected expression, found ="},
	{inGoodFile("int y = 1 + {2};"), "e.c:2:27: expected expression, found {"},
	{inGoodFile("return sizeof(int)[0];"), "e.c:2:33: expected ;, found ["},
	{inGoodFile("++(int)x;"), "e.c:2:18: expected expression, found int"},
	{inGoodFile("int y, ;"), "e.c:2:22: expected a declarator name"},
	{inGoodFile("int y[1] = {1 2};"), `e.c:2:29: expected }, found integer literal "2"`},
	{inGoodFile("int y(int x x);"), `e.c:2:27: expected ), found identifier "x"`},
	{inGoodFile("switch (x) { case 1 2: ; }"), `e.c:2:35: expected :, found integer literal "2"`},
	{inGoodFile("case x = 1: ;"), "e.c:2:22: expected :, found ="},
	// C has no empty argument after a comma.
	{inGoodFile("f(x,);"), "e.c:2:19: expected expression, found )"},
}

// TestSkimErrors: pass 1 alone reports the error a whole-file parse
// reports, whether a declaration or a body holds it, and whichever
// comes first in source order.
func TestSkimErrors(t *testing.T) {
	for _, c := range skimErrorCases {
		if _, err := cc.SkimFile(new(cc.Arena), "e.c", c.src); err == nil || err.Error() != c.err {
			t.Errorf("%q: skim reports %v, want %s", c.src, err, c.err)
		}
		if _, err := cc.ParseFile("e.c", c.src); err == nil || err.Error() != c.err {
			t.Errorf("%q: the whole-file parse reports %v, want %s", c.src, err, c.err)
		}
	}
	// Across files, the first sorted file's error wins: a body in a.c
	// before a declaration in b.c.
	srcs := map[string]string{"a.c": "int f(int x) { return x x; }", "b.c": "int x = ;"}
	const want = `parse a.c: a.c:1:25: expected ;, found identifier "x"`
	_, got := cc.SkimFiles(srcs, 2)
	var pe *cc.ParseError
	if got == nil || got.Error() != want || !errors.As(got, &pe) {
		t.Errorf("two files: skim reports %v, want %s", got, want)
	}
}

// FuzzSkim: the skim never panics, it fails exactly where the
// whole-file parse fails and with its message, its spans are
// brace-balanced, and wherever the parser accepts a file the skim
// agrees with it — the same callees, no assignment it does not see, and
// every body parsing on demand to the whole-file parse's bytes.
func FuzzSkim(f *testing.F) {
	for _, c := range skimCases {
		f.Add(c.src)
	}
	for _, c := range skimErrorCases {
		f.Add(c.src)
	}
	for _, name := range []string{"ringbuf.c", "slab.c", "strutil.c", "sysctl.c"} {
		if data, err := os.ReadFile(filepath.Join("testdata/corpus", name)); err == nil {
			f.Add(string(data))
		}
	}
	f.Fuzz(skimAgrees)
}

// skimAgrees is FuzzSkim's check of one file.
func skimAgrees(t *testing.T, src string) {
	skimmed, skimErr := cc.SkimFile(new(cc.Arena), "z.c", src)
	parsed, err := cc.ParseFile("z.c", src)
	if fmt.Sprint(skimErr) != fmt.Sprint(err) {
		t.Fatalf("skim reports %v, the whole-file parse %v", skimErr, err)
	}
	if err != nil {
		return
	}
	toks, _ := cc.LexAll("z.c", src)
	for _, fd := range skimmed.Funcs() {
		lo, hi := int(fd.Skim.Lo), int(fd.Skim.Hi)
		if toks[lo].Kind != cc.TokLBrace || toks[hi].Kind != cc.TokRBrace || !balanced(toks[lo:hi+1]) {
			t.Fatalf("%s: span [%d, %d] is not a balanced block", fd.Name, lo, hi)
		}
	}
	p, q := prog.Build(parsed), prog.Assemble(skimmed)
	for i, fn := range p.All {
		if sk := q.All[i]; sk.Graph == nil {
			names := slices.Clone(sk.Decl.Skim.Callees)
			sort.Strings(names)
			if want := cfgCallees(fn.Graph); !slices.Equal(names, want) {
				t.Fatalf("%s: skim calls %v, the CFG %v", fn.Name, names, want)
			}
			if !sk.Decl.Skim.Assigns && cfgAssigns(fn.Graph) {
				t.Fatalf("%s: the skim finds no assignment, the CFG has one", fn.Name)
			}
		}
	}
	for _, fd := range skimmed.Funcs() {
		if err := cc.ParseBody(fd, new(cc.Arena)); err != nil {
			t.Fatalf("%s: the skim accepts the body, the parser on demand fails: %v", fd.Name, err)
		}
	}
	if !bytes.Equal(cc.EmitFile(skimmed), cc.EmitFile(parsed)) {
		t.Fatal("bodies parsed on demand emit other bytes than the whole-file parse")
	}
}

func balanced(toks []cc.Token) bool {
	depth := 0
	for i, tk := range toks {
		switch tk.Kind {
		case cc.TokLBrace:
			depth++
		case cc.TokRBrace:
			if depth--; depth == 0 && i != len(toks)-1 || depth < 0 {
				return false
			}
		}
	}
	return depth == 0
}

// TestParseErrorsAgreeOnEveryPath: every door that parses sources fails
// a file that does not parse with the one message a whole-file parse
// gives — a run without a store, a run with an empty store,
// Supergraph, InferPairs and prog.BuildSource alike. The last trees
// hold bodies with balanced braces whose error only a skim that checks
// them meets in pass 1, and that a run with a store builds late or
// never: in a unit every loaded checker is silent over, alone or after
// one a checker keys; and in a unit only the second phase's checker
// keys, before one the first phase's checker keys, so the first error
// in source order is one no phase meets first. Those trees fail alike
// too when the store holds the records of a run over them with their
// bodies mended.
func TestParseErrorsAgreeOnEveryPath(t *testing.T) {
	type tree struct {
		srcs     map[string]string
		checkers []string
	}
	var trees []tree
	for _, c := range skimErrorCases {
		trees = append(trees, tree{map[string]string{"a.c": "int ok(void) { return 0; }", "e.c": c.src}, []string{"free"}})
	}
	trees = append(trees,
		tree{map[string]string{
			"a.c": "void kfree(void *p);\nint ok(int *p) { kfree(p); return *p; }",
			"e.c": "int quiet(int x) { return x x; }",
		}, []string{"free"}},
		tree{map[string]string{
			"a.c": "void kfree(void *p);\nint ok(int *p) { kfree(p); return *p p; }",
			"e.c": "int quiet(int x) { return x x; }",
		}, []string{"free"}},
		tree{map[string]string{
			"a.c": "void cli(void);\nint early(int x) { cli(); return x x; }",
			"e.c": "void panic(const char *m);\nint ok(int x) { if (x) panic(\"no\"); return x x; }",
		}, []string{"panic-marker", "block"}},
	)
	for _, tc := range trees {
		srcs := tc.srcs
		src := srcs["e.c"]
		_, want := parseEach(srcs)
		if want == nil {
			t.Fatalf("%q parses", src)
		}
		analyzer := func(store cache.Store) *mc.Analyzer {
			a := mc.NewAnalyzer()
			if err := a.Configure(mc.RunConfig{Jobs: 2, CacheStore: store}); err != nil {
				t.Fatal(err)
			}
			for name, src := range srcs {
				a.AddSource(name, src)
			}
			for _, c := range tc.checkers {
				if err := a.LoadBundledChecker(c); err != nil {
					t.Fatal(err)
				}
			}
			return a
		}
		paths := map[string]func() error{
			"run": func() error { _, err := analyzer(nil).RunContext(context.Background()); return err },
			"run with a store": func() error {
				_, err := analyzer(cache.NewMemStore()).RunContext(context.Background())
				return err
			},
			"run with a filled store": func() error {
				store := cache.NewMemStore()
				if strings.Contains(src, "x x") {
					mended, broken := map[string]string{}, srcs
					for name, src := range srcs {
						mended[name] = strings.NewReplacer("x x", "x", "*p p", "*p").Replace(src)
					}
					srcs = mended
					_, err := analyzer(store).RunContext(context.Background())
					if srcs = broken; err != nil {
						t.Fatalf("%q mended: %v", src, err)
					}
				}
				_, err := analyzer(store).RunContext(context.Background())
				return err
			},
			"Supergraph":  func() error { _, err := analyzer(nil).Supergraph(context.Background(), "ok"); return err },
			"InferPairs":  func() error { _, err := analyzer(nil).InferPairs(nil); return err },
			"BuildSource": func() error { _, err := prog.BuildSource(srcs); return err },
		}
		for name, run := range paths {
			if got := run(); got == nil || got.Error() != want.Error() {
				t.Errorf("%q: %s fails with %v, a whole-file parse with %v", src, name, got, want)
			}
		}
	}
}
