package repro

// End-to-end CLI tests: build and drive the three commands the way a
// user would. These run `go run ./cmd/...` (mcbench: a built binary,
// for its exit code) from the repository root.

import (
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
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
