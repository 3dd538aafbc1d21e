package repro

// End-to-end CLI tests: build and drive the three commands the way a
// user would. These run `go run ./cmd/...` (mcbench: a built binary,
// for its exit code) from the repository root.

import (
	"context"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

func runCmd(t *testing.T, args ...string) (string, error) {
	t.Helper()
	cmd := exec.Command("go", append([]string{"run"}, args...)...)
	cmd.Dir = "."
	out, err := cmd.CombinedOutput()
	return string(out), err
}

func writeTemp(t *testing.T, name, content string) string {
	t.Helper()
	dir := t.TempDir()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

const cliFixture = `
void kfree(void *p);
void lock(int *l);
void unlock(int *l);
int shared;
int use_after_free(int *p) {
    kfree(p);
    return *p;
}
void unbalanced(void) {
    lock(&shared);
}
`

func TestXgccCLIBasic(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns go run")
	}
	src := writeTemp(t, "fix.c", cliFixture)
	out, err := runCmd(t, "./cmd/xgcc", "-checker", "free,lock", src)
	if err != nil {
		t.Fatalf("xgcc failed: %v\n%s", err, out)
	}
	for _, want := range []string{"using p after free!", "never released", "2 reports"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	// An unnamed parameter does not end the argument mapping (§6.1).
	unnamed := writeTemp(t, "unnamed.c", "void kfree(void *p);\nvoid rel(int, int *p) { kfree(p); }\nint caller(int *q) { rel(0, q); return *q; }\n")
	if out, err := runCmd(t, "./cmd/xgcc", "-checker", "free", unnamed); err != nil || !strings.Contains(out, "using q after free!") {
		t.Errorf("unnamed parameter: want the use of q after rel(0, q) reported (err %v):\n%s", err, out)
	}
}

func TestXgccCLIListAndStats(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns go run")
	}
	out, err := runCmd(t, "./cmd/xgcc", "-list")
	if err != nil {
		t.Fatalf("xgcc -list failed: %v\n%s", err, out)
	}
	for _, want := range []string{"free", "lock", "null", "taint", "chroot"} {
		if !strings.Contains(out, want) {
			t.Errorf("-list missing %q:\n%s", want, out)
		}
	}

	src := writeTemp(t, "fix.c", cliFixture)
	out, err = runCmd(t, "./cmd/xgcc", "-checker", "free", "-stats", "-why", src)
	if err != nil {
		t.Fatalf("xgcc -stats failed: %v\n%s", err, out)
	}
	if !strings.Contains(out, "points=") || !strings.Contains(out, "enters state freed") {
		t.Errorf("stats/why output wrong:\n%s", out)
	}
}

func TestXgccCLITwoPassAndCheckerFile(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns go run")
	}
	src := writeTemp(t, "fix.c", cliFixture)
	checker := writeTemp(t, "my.metal", `
sm my_checker;
state decl any_pointer v;
start: { kfree(v) } ==> v.freed;
v.freed: { *v } ==> v.stop, { err("MY-MARKER %s", mc_identifier(v)); };
`)
	out, err := runCmd(t, "./cmd/xgcc", "-checker-file", checker, "-two-pass", src)
	if err != nil {
		t.Fatalf("xgcc -checker-file failed: %v\n%s", err, out)
	}
	if !strings.Contains(out, "MY-MARKER p") {
		t.Errorf("custom checker not applied:\n%s", out)
	}

	// -two-pass takes the direct run's file list: a directory is its .c
	// files, a path is cleaned (reports and -baseline history name the
	// file the same way in both modes), and a path named twice fails.
	tp := filepath.Join(t.TempDir(), "tp")
	if err := os.Mkdir(tp, 0o755); err != nil {
		t.Fatal(err)
	}
	corpus, _ := filepath.Glob("testdata/corpus/*.c")
	for _, p := range corpus {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(tp, filepath.Base(p)), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	unclean := filepath.Join(tp, "..", "tp", "slab.c")
	for _, arg := range []string{tp, unclean} {
		direct, err := runCmd(t, "./cmd/xgcc", "-checker", "free,lock,null", arg)
		if err != nil {
			t.Fatalf("xgcc %s: %v\n%s", arg, err, direct)
		}
		twoPass, err := runCmd(t, "./cmd/xgcc", "-checker", "free,lock,null", "-two-pass", arg)
		if err != nil {
			t.Fatalf("xgcc -two-pass %s: %v\n%s", arg, err, twoPass)
		}
		if twoPass != direct || !strings.Contains(direct, filepath.Join(tp, "slab.c")+":56:5:") {
			t.Errorf("%s: -two-pass output differs from the direct run's:\n%s\n---\n%s", arg, twoPass, direct)
		}
	}
	if out, err := runCmd(t, "./cmd/xgcc", "-two-pass", filepath.Join(tp, "slab.c"), unclean); err == nil || !strings.Contains(out, "duplicate source") {
		t.Errorf("-two-pass with one file named twice: want a duplicate source error (err %v):\n%s", err, out)
	}
}

// TestXgccCLICheckerFileWithChecker: -checker names bundled checkers
// to run beside -checker-file's, even when it names the default, free.
func TestXgccCLICheckerFileWithChecker(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns go run")
	}
	src := writeTemp(t, "fix.c", cliFixture)
	checker := writeTemp(t, "my.metal", `
sm my_checker;
state decl any_pointer v;
start: { kfree(v) } ==> v.freed;
v.freed: { *v } ==> v.stop, { err("MY-MARKER %s", mc_identifier(v)); };
`)
	out, err := runCmd(t, "./cmd/xgcc", "-checker-file", checker, "-checker", "free", src)
	if err != nil {
		t.Fatalf("xgcc failed: %v\n%s", err, out)
	}
	for _, want := range []string{"[my_checker] MY-MARKER p", "[free_checker] using p after free!", "2 reports"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

// TestXgccCLIMalformedInput: a -mark entry that is not fn=annotation
// and a -rank that is not a ranking are usage errors that name the
// entry, not settings silently dropped.
func TestXgccCLIMalformedInput(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns go run")
	}
	src := writeTemp(t, "fix.c", cliFixture)
	for _, tc := range []struct{ flag, value, entry string }{
		{"-mark", "might_sleep", `"might_sleep"`},
		{"-mark", "a=b,=blocking", `"=blocking"`},
		{"-mark", "panic=", `"panic="`},
		{"-rank", "zscore", `"zscore"`},
	} {
		out, err := runCmd(t, "./cmd/xgcc", tc.flag, tc.value, src)
		if err == nil || !strings.Contains(out, "exit status 2") || !strings.Contains(out, tc.flag+" ") || !strings.Contains(out, tc.entry) {
			t.Errorf("%s %s: err %v, want exit 2 naming %s:\n%s", tc.flag, tc.value, err, tc.entry, out)
		}
	}
}

// TestXgccdRejectsUnloadableCheckers: a daemon whose checkers do not
// load would answer every analyze with 500, so it exits at start-up
// and names the checker instead of listening.
func TestXgccdRejectsUnloadableCheckers(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns go build")
	}
	bin := filepath.Join(t.TempDir(), "xgccd")
	if out, err := exec.Command("go", "build", "-o", bin, "./cmd/xgccd").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	bad := writeTemp(t, "bad.metal", "sm broken;\nstart: {\n")
	for _, tc := range []struct{ flag, value, names string }{
		{"-checkers", "free,nosuch", "nosuch"},
		{"-checker-file", bad, bad},
	} {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		out, err := exec.CommandContext(ctx, bin, "-addr", "127.0.0.1:0", tc.flag, tc.value).CombinedOutput()
		expired := ctx.Err()
		cancel()
		if expired != nil || err == nil || !strings.Contains(string(out), tc.names) {
			t.Errorf("xgccd %s %s: err %v (deadline %v), want a non-zero exit naming %s:\n%s", tc.flag, tc.value, err, expired, tc.names, out)
		}
	}
}

func TestMetalcCLI(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns go run")
	}
	out, err := runCmd(t, "./cmd/metalc", "-bundled", "lock")
	if err != nil {
		t.Fatalf("metalc failed: %v\n%s", err, out)
	}
	for _, want := range []string{"checker lock_checker", "state variable l", "true=l.locked"} {
		if !strings.Contains(out, want) {
			t.Errorf("metalc output missing %q:\n%s", want, out)
		}
	}

	// -match lists what the engine fires: the leak checker's creation
	// transition is guarded by mc_is_local, which reads the function's
	// locals from the match context, and its two holes print in name
	// order on every run.
	src := writeTemp(t, "leak.c", `void *kmalloc(int n);
int f(int n) {
    int *p;
    p = kmalloc(n);
    if (!p) return 0;
    return 1;
}
`)
	out, err = runCmd(t, "./cmd/metalc", "-bundled", "leak", "-match", src)
	if err != nil {
		t.Fatalf("metalc -match failed: %v\n%s", err, out)
	}
	if !regexp.MustCompile(`leak\.c:4:5: transition \[0\] .*mc_is_local.* matches "p = kmalloc\(n\)"  args=n  v=p\n`).MatchString(out) {
		t.Errorf("-match does not list the creation transition on the kmalloc line:\n%s", out)
	}
	if again, _ := runCmd(t, "./cmd/metalc", "-bundled", "leak", "-match", src); again != out {
		t.Errorf("two -match runs differ:\n%s\n---\n%s", out, again)
	}
}

// submatches returns the first capture group of every match of re in
// the named file.
func submatches(t *testing.T, file, re string) []string {
	t.Helper()
	data, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, m := range regexp.MustCompile(re).FindAllStringSubmatch(string(data), -1) {
		out = append(out, m[1])
	}
	return out
}

// mcbenchIDs reads the experiment registry out of mcbench's source.
func mcbenchIDs(t *testing.T) []string {
	t.Helper()
	ids := submatches(t, "cmd/mcbench/main.go", `(?m)^\t\{"(\w+)", "`)
	if len(ids) == 0 {
		t.Fatal("no experiment registry found in cmd/mcbench/main.go")
	}
	return ids
}

// TestMcbenchCLISingleExperiment drives the built binary: one
// experiment, all of them (one banner each, nothing written to the
// working directory), and unknown ids, which must fail the whole
// invocation before anything runs.
func TestMcbenchCLISingleExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns go build")
	}
	bin := filepath.Join(t.TempDir(), "mcbench")
	if out, err := exec.Command("go", "build", "-o", bin, "./cmd/mcbench").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	for _, tc := range []struct {
		exp                string
		exit, banners, oks int // oks: Table 2 rows reproduced
	}{
		{"t2", 0, 1, 5},
		{"all", 0, len(mcbenchIDs(t)), 5},
		{"t2,par", 2, 0, 0},
		{"par", 2, 0, 0},
	} {
		cmd := exec.Command(bin, "-exp", tc.exp)
		cmd.Dir = t.TempDir()
		raw, err := cmd.CombinedOutput()
		out := string(raw)
		if _, exited := err.(*exec.ExitError); err != nil && !exited {
			t.Fatal(err)
		}
		if got := cmd.ProcessState.ExitCode(); got != tc.exit {
			t.Errorf("-exp %s: exit %d, want %d:\n%s", tc.exp, got, tc.exit, out)
		}
		if got := strings.Count(out, " ====\n"); got != tc.banners {
			t.Errorf("-exp %s: %d experiment banners, want %d:\n%s", tc.exp, got, tc.banners, out)
		}
		if got := strings.Count(out, "-> ok"); got != tc.oks {
			t.Errorf("-exp %s: %d Table 2 rows ok, want %d:\n%s", tc.exp, got, tc.oks, out)
		}
		if tc.exit != 0 && !strings.Contains(out, `"par"`) {
			t.Errorf("-exp %s: error does not name the unknown id:\n%s", tc.exp, out)
		}
		if left, err := os.ReadDir(cmd.Dir); err != nil || len(left) != 0 {
			t.Errorf("-exp %s left %d files in its working directory (%v)", tc.exp, len(left), err)
		}
	}
}

// TestDocsCiteWhatExists: every test, benchmark and fuzz target, make
// target, mcbench experiment and repo-root JSON file the documentation
// names is there. A trailing * on a test name is a prefix match.
func TestDocsCiteWhatExists(t *testing.T) {
	funcs := map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if strings.HasSuffix(path, "_test.go") {
			for _, f := range submatches(t, path, `(?m)^func ((?:Test|Benchmark|Fuzz)\w+)\(`) {
				funcs[f] = true
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	set := func(names []string) map[string]bool {
		m := map[string]bool{}
		for _, n := range names {
			m[n] = true
		}
		return m
	}
	targets := set(submatches(t, "Makefile", `(?m)^([a-z][\w-]*):`))
	ids := set(append(mcbenchIDs(t), "all"))

	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", "TUTORIAL.md"} {
		for _, cite := range submatches(t, doc, `\b((?:Test|Benchmark|Fuzz)[A-Z0-9]\w*\*?)`) {
			name := strings.TrimSuffix(cite, "*")
			ok := funcs[name]
			if name != cite {
				for f := range funcs {
					ok = ok || strings.HasPrefix(f, name)
				}
			}
			if !ok {
				t.Errorf("%s cites %s: no _test.go defines it", doc, cite)
			}
		}
		for _, target := range submatches(t, doc, "(?m)(?:[`(]|^)make ([a-z][\\w-]*)") {
			if !targets[target] {
				t.Errorf("%s cites make %s: not a Makefile target", doc, target)
			}
		}
		for _, list := range submatches(t, doc, `mcbench -exp ([\w,]+)`) {
			for _, id := range strings.Split(list, ",") {
				if !ids[id] {
					t.Errorf("%s cites mcbench -exp %s: not a registered experiment", doc, id)
				}
			}
		}
		for _, file := range submatches(t, doc, `(?:^|[^\w/.-])([A-Z]\w*\.json)`) {
			if _, err := os.Stat(file); err != nil {
				t.Errorf("%s cites %s: not in the repository root", doc, file)
			}
		}
	}
}

// testOnlyExemptDirs are fixture packages: their exports exist for
// tests to call.
var testOnlyExemptDirs = map[string]bool{
	"internal/workload":        true,
	"internal/cache/cachetest": true,
}

// testOnlyExemptSeams are exports only tests call, kept because each
// observes or injects a safety path the product cannot be made to hit
// on demand.
var testOnlyExemptSeams = map[string]string{
	"singleflight.Group.Waiters":   "observes that joiners are parked before the leader finishes, which the coalescing tests must see",
	"harness.ValidateWithCallouts": "injects a callout so the validator's budget and panic paths run without a slow bundled checker",
}

// TestNoTestOnlyExports: the product's API is what the product calls.
// Every exported function or method declared in non-test Go under
// internal/ or mc/ is named by some non-test file (cmd/, examples/ and
// benchmark/ count), so no test certifies code the product never runs.
func TestNoTestOnlyExports(t *testing.T) {
	type decl struct{ key, pos string }
	var decls []decl
	refs := map[string]bool{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		product := (strings.HasPrefix(dir, "internal/") || dir == "mc") && !testOnlyExemptDirs[dir]
		declared := map[*ast.Ident]bool{}
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok {
				continue
			}
			declared[fn.Name] = true
			if !product || !fn.Name.IsExported() {
				continue
			}
			key := f.Name.Name + "." + fn.Name.Name
			if fn.Recv != nil {
				typ := fn.Recv.List[0].Type
				if star, ok := typ.(*ast.StarExpr); ok {
					typ = star.X
				}
				if idx, ok := typ.(*ast.IndexExpr); ok {
					typ = idx.X
				}
				key = f.Name.Name + "." + typ.(*ast.Ident).Name + "." + fn.Name.Name
			}
			decls = append(decls, decl{key, fset.Position(fn.Pos()).String()})
		}
		ast.Walk(identVisitor(func(id *ast.Ident) {
			if !declared[id] {
				refs[id.Name] = true
			}
		}), f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, d := range decls {
		name := d.key[strings.LastIndex(d.key, ".")+1:]
		if _, ok := testOnlyExemptSeams[d.key]; ok {
			seen[d.key] = true
			continue
		}
		if !refs[name] {
			t.Errorf("%s: %s is exported but no non-test file names it: delete it or move it into a _test.go file", d.pos, d.key)
		}
	}
	for key := range testOnlyExemptSeams {
		if !seen[key] {
			t.Errorf("exempt seam %s is not declared any more: drop it from testOnlyExemptSeams", key)
		}
	}
}

// identVisitor calls itself on every identifier of a tree.
type identVisitor func(*ast.Ident)

func (v identVisitor) Visit(n ast.Node) ast.Visitor {
	if id, ok := n.(*ast.Ident); ok {
		v(id)
	}
	return v
}

func TestXgccCLIJSONAndDirectory(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns go run")
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "a.c"), []byte(cliFixture), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := runCmd(t, "./cmd/xgcc", "-checker", "free", "-json", dir)
	if err != nil {
		t.Fatalf("xgcc -json failed: %v\n%s", err, out)
	}
	if !strings.Contains(out, `"checker":"free_checker"`) || !strings.Contains(out, `"message":"using p after free!"`) {
		t.Errorf("json output wrong:\n%s", out)
	}
}

func TestXgccCLIBaselineHistory(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns go run")
	}
	dir := t.TempDir()
	v1 := filepath.Join(dir, "mod.c")
	if err := os.WriteFile(v1, []byte(cliFixture), 0o644); err != nil {
		t.Fatal(err)
	}
	hist := filepath.Join(dir, "baseline.json")

	// First run: reports appear and are recorded.
	out, err := runCmd(t, "./cmd/xgcc", "-checker", "free,lock", "-baseline", hist, v1)
	if err != nil {
		t.Fatalf("run 1: %v\n%s", err, out)
	}
	if !strings.Contains(out, "2 reports") {
		t.Fatalf("run 1 should report twice:\n%s", out)
	}

	// Second run on an edited version (lines shifted): everything
	// known is suppressed.
	if err := os.WriteFile(v1, []byte("/* banner */\n\n"+cliFixture), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err = runCmd(t, "./cmd/xgcc", "-checker", "free,lock", "-baseline", hist, v1)
	if err != nil {
		t.Fatalf("run 2: %v\n%s", err, out)
	}
	if !strings.Contains(out, "0 reports") {
		t.Errorf("run 2 should be silent after history suppression:\n%s", out)
	}

	// Third run with a fresh bug: only the new report surfaces.
	edited := "/* banner */\n\n" + cliFixture + `
int fresh_bug(int *q) {
    kfree(q);
    return *q;
}
`
	if err := os.WriteFile(v1, []byte(edited), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err = runCmd(t, "./cmd/xgcc", "-checker", "free,lock", "-baseline", hist, v1)
	if err != nil {
		t.Fatalf("run 3: %v\n%s", err, out)
	}
	if !strings.Contains(out, "1 reports") || !strings.Contains(out, "using q after free!") {
		t.Errorf("run 3 should show only the fresh bug:\n%s", out)
	}
}

// TestRemovedModeFlagRejected: a run has one mode (DESIGN.md §12) and
// one false-path model (§8), and the flags that switched on a second
// are unknown flags to both binaries: exit 2, before anything runs or
// listens.
func TestRemovedModeFlagRejected(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns go run")
	}
	for _, args := range [][]string{{"-max-" + "resident-mb", "1"}, {"-" + "verify"}} {
		flag := args[0]
		for _, cmd := range []string{"./cmd/xgcc", "./cmd/xgccd"} {
			out, err := runCmd(t, append([]string{cmd}, args...)...)
			if err == nil || !strings.Contains(out, "flag provided but not defined: "+flag) || !strings.Contains(out, "exit status 2") {
				t.Errorf("%s %s: err %v, want an unknown-flag error and exit status 2:\n%.300s", cmd, strings.Join(args, " "), err, out)
			}
		}
	}
}
