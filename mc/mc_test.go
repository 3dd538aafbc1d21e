package mc

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/report"
	"repro/internal/workload"
)

const driverSrc = `
void kfree(void *p);
void *kmalloc(unsigned long n);
int handler(int *p, int n) {
    kfree(p);
    if (n > 4)
        return *p;
    return 0;
}`

func TestAnalyzerEndToEnd(t *testing.T) {
	a := NewAnalyzer()
	a.AddSource("drv.c", driverSrc)
	if err := a.LoadBundledChecker("free"); err != nil {
		t.Fatal(err)
	}
	res, err := a.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Reports) != 1 {
		t.Fatalf("reports = %v", res.Reports)
	}
	r := res.Ranked()[0]
	if !strings.Contains(r.Msg, "after free") || r.Pos.Line != 7 {
		t.Errorf("report = %v", r)
	}
}

func TestAnalyzerErrors(t *testing.T) {
	a := NewAnalyzer()
	if _, err := a.RunContext(context.Background()); err == nil {
		t.Error("no sources: want error")
	}
	a.AddSource("x.c", "int x;")
	if _, err := a.RunContext(context.Background()); err == nil {
		t.Error("no checkers: want error")
	}
	if err := a.LoadBundledChecker("nope"); err == nil {
		t.Error("unknown checker: want error")
	}
	if err := a.LoadChecker("not metal"); err == nil {
		t.Error("bad checker source: want error")
	}
	a2 := NewAnalyzer()
	a2.AddSource("bad.c", "int f( {")
	a2.LoadBundledChecker("free")
	if _, err := a2.RunContext(context.Background()); err == nil {
		t.Error("parse error should propagate")
	}
}

func TestTwoPassPipeline(t *testing.T) {
	// Pass 1: emit ASTs; pass 2: reload and analyze — same result as
	// direct parsing (§6's architecture).
	data, err := EmitAST("drv.c", driverSrc)
	if err != nil {
		t.Fatal(err)
	}
	f, err := LoadAST(data)
	if err != nil {
		t.Fatal(err)
	}
	a := NewAnalyzer()
	a.AddAST(f)
	a.LoadBundledChecker("free")
	res, err := a.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Reports) != 1 || res.Reports[0].Pos.Line != 7 {
		t.Errorf("two-pass reports = %v", res.Reports)
	}
}

func TestMultipleCheckersShareComposition(t *testing.T) {
	a := NewAnalyzer()
	a.AddSource("m.c", `
void cli(void); void sti(void);
void do_sleep(void);
void bad(void) {
    cli();
    do_sleep();
    sti();
}`)
	a.MarkFunction("do_sleep", "blocking")
	if err := a.LoadBundledChecker("block"); err != nil {
		t.Fatal(err)
	}
	res, err := a.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Reports) != 1 {
		t.Errorf("reports = %v", res.Reports)
	}
}

func TestHistorySuppression(t *testing.T) {
	a := NewAnalyzer()
	a.AddSource("drv.c", driverSrc)
	a.LoadBundledChecker("free")
	res, _ := a.RunContext(context.Background())
	if len(res.Reports) != 1 {
		t.Fatal("setup failed")
	}

	b := NewAnalyzer()
	b.AddSource("drv.c", driverSrc)
	b.LoadBundledChecker("free")
	b.SetHistory(res.Reports)
	res2, _ := b.RunContext(context.Background())
	if len(res2.Reports) != 0 {
		t.Errorf("history should suppress the known report; got %v", res2.Reports)
	}
}

func TestZRankedAndGrouped(t *testing.T) {
	a := NewAnalyzer()
	a.AddSource("z.c", `
void kfree(void *p);
void good1(int *a) { kfree(a); }
void good2(int *b) { kfree(b); }
void good3(int *c) { kfree(c); }
void bad(int *d) { kfree(d); kfree(d); }
`)
	a.LoadBundledChecker("free")
	res, err := a.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.ZRanked()) != 1 {
		t.Fatalf("reports = %v", res.Reports)
	}
	groups := res.Grouped()
	if len(groups) != 1 || groups[0].Rule != "kfree" {
		t.Errorf("groups = %v", groups)
	}
	if st := res.RuleStats["kfree"]; st.Examples < 3 || st.Violations != 1 {
		t.Errorf("rule stats = %+v", st)
	}
}

func TestBundledCheckersListed(t *testing.T) {
	names := map[string]bool{}
	for _, s := range BundledCheckers() {
		names[s.Name] = true
	}
	for _, want := range []string{"free", "lock", "null", "interrupt", "leak"} {
		if !names[want] {
			t.Errorf("bundled checker %q missing", want)
		}
	}
}

func TestCustomMetalChecker(t *testing.T) {
	a := NewAnalyzer()
	a.AddSource("c.c", `
int rand(void);
int weak_key(void) {
    return rand();
}`)
	err := a.LoadChecker(`
sm rand_checker;
start:
    { rand() } ==> start, { err("rand() is not cryptographically secure"); classify("SECURITY"); }
;`)
	if err != nil {
		t.Fatal(err)
	}
	res, err := a.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Reports) != 1 || res.Reports[0].Class != report.ClassSecurity {
		t.Errorf("reports = %v", res.Reports)
	}
}

// TestE11SuitePrecision is the headline end-to-end experiment: the
// full checker suite over a seeded multi-file tree must find every
// seeded bug with no false positives (see EXPERIMENTS.md E11).
func TestE11SuitePrecision(t *testing.T) {
	srcs, bugs := workload.MixedTree(4, 25, 2002)
	kindToChecker := map[string]string{
		"use-after-free": "free_checker",
		"double-free":    "free_checker",
		"missing-unlock": "lock_checker",
		"null-deref":     "null_checker",
		"leak":           "leak_checker",
		"interrupt":      "interrupt_checker",
	}
	buggy := map[string]string{}
	for _, b := range bugs {
		buggy[b.Func] = b.Kind
	}

	a := NewAnalyzer()
	for name, src := range srcs {
		a.AddSource(name, src)
	}
	for _, c := range []string{"free", "lock", "null", "leak", "interrupt"} {
		if err := a.LoadBundledChecker(c); err != nil {
			t.Fatal(err)
		}
	}
	res, err := a.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	hit := map[string]bool{}
	for _, r := range res.Reports {
		kind, isBuggy := buggy[r.Func]
		if !isBuggy || kindToChecker[kind] != r.Checker {
			t.Errorf("false positive: %s (func %s)", r, r.Func)
			continue
		}
		hit[r.Func] = true
	}
	for _, b := range bugs {
		if !hit[b.Func] {
			t.Errorf("missed seeded %s in %s (line %d)", b.Kind, b.Func, b.Line)
		}
	}
}

// TestTutorialDMAChecker pins the checker developed in TUTORIAL.md.
func TestTutorialDMAChecker(t *testing.T) {
	checker := `
sm dma_checker;
state decl any_pointer buf;
decl any_expr dev;

start:
    { dma_map(dev, buf) } ==> buf.mapped
;

buf.mapped:
    { dma_unmap(dev, buf) } ==> buf.stop, { example("dma"); }
  | { dma_map(dev, buf) }   ==> buf.stop,
        { rule("dma"); err("%s mapped twice", mc_identifier(buf)); violation("dma"); }
  | $end_of_path$           ==> buf.stop,
        { rule("dma"); err("%s still DMA-mapped at end of path", mc_identifier(buf)); violation("dma"); }
;

buf.mapped:
    { dma_try_map(dev, buf) } ==> true=buf.mapped, false=buf.stop
;
`
	src := `
void dma_map(int dev, char *buf);
void dma_unmap(int dev, char *buf);
int dma_try_map(int dev, char *buf);
void ok(int dev, char *b) {
    dma_map(dev, b);
    dma_unmap(dev, b);
}
void leak(int dev, char *b) {
    dma_map(dev, b);
}
void twice(int dev, char *b) {
    dma_map(dev, b);
    dma_map(dev, b);
}`
	a := NewAnalyzer()
	a.AddSource("drv.c", src)
	if err := a.LoadChecker(checker); err != nil {
		t.Fatal(err)
	}
	res, err := a.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var sawLeak, sawTwice bool
	for _, r := range res.Reports {
		switch {
		case r.Func == "leak" && strings.Contains(r.Msg, "still DMA-mapped"):
			sawLeak = true
		case r.Func == "twice" && strings.Contains(r.Msg, "mapped twice"):
			sawTwice = true
		case r.Func == "ok":
			t.Errorf("clean function flagged: %s", r)
		}
	}
	if !sawLeak || !sawTwice {
		t.Errorf("tutorial checker misbehaves: %v", res.Reports)
	}
	if st := res.RuleStats["dma"]; st.Examples != 1 || st.Violations != 2 {
		t.Errorf("dma rule stats = %+v", st)
	}
}

func TestAddFileAndDirectory(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "one.c"), []byte(`
void kfree(void *p);
int f(int *p) { kfree(p); return *p; }
`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "two.c"), []byte("int g(void) { return 0; }\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "notes.txt"), []byte("not C"), 0o644); err != nil {
		t.Fatal(err)
	}

	a := NewAnalyzer()
	paths, err := SourcePaths([]string{dir})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range paths {
		if err := a.AddFile(p); err != nil {
			t.Fatal(err)
		}
	}
	a.LoadBundledChecker("free")
	res, err := a.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Reports) != 1 {
		t.Errorf("reports = %v", res.Reports)
	}
	if len(res.Program.All) != 2 {
		t.Errorf("functions = %d (txt file must be skipped)", len(res.Program.All))
	}

	b := NewAnalyzer()
	if err := b.AddFile(filepath.Join(dir, "one.c")); err != nil {
		t.Fatal(err)
	}
	b.LoadBundledChecker("free")
	res2, err := b.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.Reports) != 1 {
		t.Errorf("AddFile reports = %v", res2.Reports)
	}

	if err := b.AddFile(filepath.Join(dir, "missing.c")); err == nil {
		t.Error("missing file should error")
	}

	// SourcePaths names what AddFile registers: a directory's .c files,
	// cleaned paths in sorted order, and a path named twice (however
	// spelled) an error.
	two := filepath.Join(dir, "two.c")
	paths, err = SourcePaths([]string{filepath.Join(dir, "..", filepath.Base(dir), "two.c"), dir + "/"})
	if err == nil || !strings.Contains(err.Error(), "duplicate source "+two) {
		t.Errorf("two.c named twice: paths %v, err %v", paths, err)
	}
	paths, err = SourcePaths([]string{two, filepath.Join(dir, ".", "one.c")})
	if err != nil || strings.Join(paths, " ") != filepath.Join(dir, "one.c")+" "+two {
		t.Errorf("SourcePaths = %v, %v", paths, err)
	}
}

func TestEmitASTErrors(t *testing.T) {
	if _, err := EmitAST("bad.c", "int f( {"); err == nil {
		t.Error("parse error should propagate from EmitAST")
	}
}

// TestAnalyzerInferPairs: rule inference reads the registered sources;
// it needs no checker and no run. A finished run's Result.Program could
// not serve it: retirement left names, files, parameters and call-graph
// links, but no bodies.
func TestAnalyzerInferPairs(t *testing.T) {
	a := NewAnalyzer()
	a.AddSource("p.c", `
void kfree(void *p);
void acq(void) {}
void rel(void) {}
void u1(void) { acq(); rel(); }
void u2(void) { acq(); rel(); }
int u3(int *p) { acq(); kfree(p); return *p; }
`)
	pairs, err := a.InferPairs(func(n string) bool { return n == "acq" || n == "rel" })
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) == 0 || pairs[0].Rule != "acq->rel" {
		t.Fatalf("pairs = %v", pairs)
	}
	if pairs[0].Examples != 2 || pairs[0].Violations != 1 {
		t.Errorf("evidence = %d/%d", pairs[0].Examples, pairs[0].Violations)
	}

	a.LoadBundledChecker("free")
	res, err := a.RunContext(context.Background())
	if err != nil || len(res.Reports) != 1 {
		t.Fatalf("run: %v, %d reports", err, len(res.Reports))
	}
	u3 := res.Program.Lookup("u3")
	if u3 == nil || u3.Graph != nil || u3.Decl.Body != nil || u3.Sites != nil {
		t.Fatalf("a finished run left u3's body behind: %+v", u3)
	}
	if u3.Decl.File != "p.c" || len(u3.Decl.Params) != 1 || len(u3.Callees) != 1 || u3.Callees[0].Name != "acq" || len(res.Program.Units()) == 0 {
		t.Errorf("a finished run lost u3's shell or its call-graph links: %+v", u3)
	}
	if again, err := a.InferPairs(func(n string) bool { return n == "acq" || n == "rel" }); err != nil || len(again) != len(pairs) || again[0].Rule != pairs[0].Rule || again[0].Examples != 2 {
		t.Errorf("inference after a run = %v, %v; before it %v", again, err, pairs)
	}
}

// TestRunTwiceOverAddAST: releasing a body drops the program's
// references to it and never writes through the declaration the caller
// handed to AddAST, so one loaded file serves any number of runs and of
// analyzers.
func TestRunTwiceOverAddAST(t *testing.T) {
	data, err := EmitAST("d.c", "void kfree(void *p);\nint f(int *p) { kfree(p); return *p; }\nint g(int *q) { return f(q); }")
	if err != nil {
		t.Fatal(err)
	}
	f, err := LoadAST(data)
	if err != nil {
		t.Fatal(err)
	}
	var want string
	for i := 0; i < 2; i++ {
		a := NewAnalyzer()
		a.AddAST(f)
		a.LoadBundledChecker("free")
		for run := 0; run < 2; run++ {
			res, err := a.RunContext(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if res.Spill.ASTsReleased != 2 {
				t.Fatalf("analyzer %d run %d released %d bodies; want 2", i, run, res.Spill.ASTsReleased)
			}
			var sb strings.Builder
			for _, r := range res.Ranked() {
				sb.WriteString(r.Detailed())
			}
			if want == "" {
				want = sb.String()
			}
			if got := sb.String(); got != want || len(res.Reports) != 1 {
				t.Errorf("analyzer %d run %d: %d reports:\n%s\nthe first run reported:\n%s", i, run, len(res.Reports), got, want)
			}
		}
	}
	for _, fd := range f.Funcs() {
		if fd.Body == nil {
			t.Errorf("a run wrote through the caller's declaration of %s", fd.Name)
		}
	}
}

// TestOptionsFingerprintCoversEveryField: every core.Options field
// (nested structs included) must move the cache key — so a future field
// cannot silently share cache entries across its settings. There is no
// exemption list: a setting that cannot change an output byte (the
// supergraph request) does not belong in Options.
func TestOptionsFingerprintCoversEveryField(t *testing.T) {
	base := optionsFingerprint(DefaultOptions())
	var walk func(path string, at func(*Options) reflect.Value)
	walk = func(path string, at func(*Options) reflect.Value) {
		o := DefaultOptions()
		v := at(&o)
		switch v.Kind() {
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				i := i
				name := v.Type().Field(i).Name
				if path != "" {
					name = path + "." + name
				}
				walk(name, func(o *Options) reflect.Value { return at(o).Field(i) })
			}
			return
		case reflect.Bool:
			v.SetBool(!v.Bool())
		case reflect.Int, reflect.Int64:
			v.SetInt(v.Int() + 1)
		default:
			t.Fatalf("Options.%s: kind %s not handled by this test", path, v.Kind())
		}
		if optionsFingerprint(o) == base {
			t.Errorf("Options.%s is not rendered by optionsFingerprint", path)
		}
	}
	walk("", func(o *Options) reflect.Value { return reflect.ValueOf(o).Elem() })
}
