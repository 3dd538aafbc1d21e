package repro

// The skim's oracle (DESIGN.md §8): pass 1 skims every function body
// into a token span and the names of the functions it calls, and a unit
// whose bodies no checker runs is never parsed. The call graph, the
// units and the unit keys are built from the skim, so it must say what
// the parser and the CFG say: the same callees, the same body once
// parsed on demand, a new digest for every edit that gives the parsed
// definition a new one, and the same first error.

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/cc"
	"repro/internal/cfg"
	"repro/internal/prog"
	"repro/internal/workload"
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

// checkSkim runs the oracle over one tree and returns how many bodies
// the skim left to the parser.
func checkSkim(t *testing.T, name string, srcs map[string]string) (skimmed, eager int) {
	t.Helper()
	parsed, err := cc.ParseFiles(srcs, 1)
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
			if err := cc.ParseBody(fns[j]); err != nil {
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
		f, err := cc.SkimFile(c.name+".c", c.src)
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
	parsed, err := cc.ParseFiles(srcs, 1)
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

// firstError is the error a run that builds every body reports: pass
// 1's, or the first body's in source order.
func firstError(name, src string) error {
	f, err := cc.SkimFile(name, src)
	if err != nil {
		return err
	}
	for _, fd := range f.Funcs() {
		if err := cc.ParseBody(fd); err != nil {
			return err
		}
	}
	return nil
}

// TestSkimErrors: a run that skims reports the error a whole-file parse
// reports, whether a declaration or a body holds it, and whichever
// comes first in source order.
func TestSkimErrors(t *testing.T) {
	for _, src := range []string{
		"int f(void) { return 1 } int g(void) { return 2; }",
		"int f(void) { return 1 } int x = ;",
		"int f(void) { return 1; } int x = ; int g(void) { return 2 }",
		"int f(void) { if }",
		"void f(void) { L:; L:; }",
		"int f(void) { typedef int T; T x = ; }",
		"int f(void) { x = (; }",
		"int f(void) { return 0;",
		"int f(void) { return 0; } }",
	} {
		_, want := cc.ParseFile("e.c", src)
		got := firstError("e.c", src)
		if want == nil || got == nil || got.Error() != want.Error() {
			t.Errorf("%q: skim reports %v, the whole-file parse %v", src, got, want)
		}
	}
	// Across files, the first sorted file's error wins.
	srcs := map[string]string{"a.c": "int f(void) { return 1 }", "b.c": "int x = ;"}
	_, want := cc.ParseFiles(srcs, 2)
	_, got := cc.SkimFiles(srcs, 2)
	var pe *cc.ParseError
	if want == nil || got == nil || got.Error() != want.Error() || !errors.As(got, &pe) {
		t.Errorf("two files: skim reports %v, the whole-file parse %v", got, want)
	}
}

// FuzzSkim: the skim never panics, its spans are brace-balanced, and
// wherever the parser accepts a file the skim agrees with it — the same
// callees and the same bodies — and wherever it does not, a run that
// builds every body fails with the parser's error.
func FuzzSkim(f *testing.F) {
	for _, c := range skimCases {
		f.Add(c.src)
	}
	for _, name := range []string{"ringbuf.c", "slab.c", "strutil.c", "sysctl.c"} {
		if data, err := os.ReadFile(filepath.Join("testdata/corpus", name)); err == nil {
			f.Add(string(data))
		}
	}
	f.Fuzz(func(t *testing.T, src string) {
		toks, lexErr := cc.LexAll("z.c", src)
		skimmed, skimErr := cc.SkimFile("z.c", src)
		if skimErr == nil {
			for _, fd := range skimmed.Funcs() {
				lo, hi := int(fd.Skim.Lo), int(fd.Skim.Hi)
				if lexErr != nil || toks[lo].Kind != cc.TokLBrace || toks[hi].Kind != cc.TokRBrace || !balanced(toks[lo:hi+1]) {
					t.Fatalf("%s: span [%d, %d] is not a balanced block", fd.Name, lo, hi)
				}
			}
		}
		parsed, err := cc.ParseFile("z.c", src)
		if err != nil {
			if got := firstError("z.c", src); got == nil || got.Error() != err.Error() {
				t.Fatalf("skim reports %v, the whole-file parse %v", got, err)
			}
			return
		}
		if skimErr != nil {
			t.Fatalf("the parser accepts the file, the skim reports %v", skimErr)
		}
		p, q := prog.Build(parsed), prog.Assemble(skimmed)
		for i, fn := range p.All {
			if sk := q.All[i]; sk.Graph == nil {
				names := slices.Clone(sk.Decl.Skim.Callees)
				sort.Strings(names)
				if want := cfgCallees(fn.Graph); !slices.Equal(names, want) {
					t.Fatalf("%s: skim calls %v, the CFG %v", fn.Name, names, want)
				}
			}
		}
		for _, fd := range skimmed.Funcs() {
			if err := cc.ParseBody(fd); err != nil {
				t.Fatalf("%s: the parser accepts the file, its body on demand fails: %v", fd.Name, err)
			}
		}
		if !bytes.Equal(cc.EmitFile(skimmed), cc.EmitFile(parsed)) {
			t.Fatal("bodies parsed on demand emit other bytes than the whole-file parse")
		}
	})
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
