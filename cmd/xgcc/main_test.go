package main

// End-to-end CLI tests: build the xgcc binary once and drive it as a
// subprocess, checking exit codes (-exit-code), the persistent cache
// (-cache), and baseline atomicity.

import (
	"context"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/checkers"
	"repro/internal/core"
	"repro/internal/prog"
)

const buggySrc = `void kfree(void *p);
int use_after(int *p) {
    kfree(p);
    return *p;
}
`

const cleanSrc = `int add(int a, int b) {
    return a + b;
}
`

var (
	buildOnce sync.Once
	binPath   string
	buildErr  error
)

func xgccBin(t *testing.T) string {
	t.Helper()
	buildOnce.Do(func() {
		dir, err := os.MkdirTemp("", "xgcc-cli-*")
		if err != nil {
			buildErr = err
			return
		}
		binPath = filepath.Join(dir, "xgcc")
		out, err := exec.Command("go", "build", "-o", binPath, ".").CombinedOutput()
		if err != nil {
			buildErr = err
			t.Logf("build output: %s", out)
		}
	})
	if buildErr != nil {
		t.Fatalf("build xgcc: %v", buildErr)
	}
	return binPath
}

// runXgcc runs the binary and returns combined output and exit code.
func runXgcc(t *testing.T, dir string, args ...string) (string, int) {
	t.Helper()
	cmd := exec.Command(xgccBin(t), args...)
	cmd.Dir = dir
	out, err := cmd.CombinedOutput()
	if err == nil {
		return string(out), 0
	}
	if ee, ok := err.(*exec.ExitError); ok {
		return string(out), ee.ExitCode()
	}
	t.Fatalf("run xgcc: %v", err)
	return "", -1
}

func writeSrc(t *testing.T, dir, name, src string) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestExitCodeFlag(t *testing.T) {
	dir := t.TempDir()
	buggy := writeSrc(t, dir, "buggy.c", buggySrc)
	clean := writeSrc(t, dir, "clean.c", cleanSrc)

	// Default: findings do not change the exit code.
	out, code := runXgcc(t, dir, "-checker", "free", buggy)
	if code != 0 || !strings.Contains(out, "after free") {
		t.Errorf("default run: code %d, out %.200s", code, out)
	}
	// -exit-code: findings exit 1.
	if _, code = runXgcc(t, dir, "-checker", "free", "-exit-code", buggy); code != 1 {
		t.Errorf("-exit-code with findings: code %d", code)
	}
	// -exit-code on clean input exits 0.
	if _, code = runXgcc(t, dir, "-checker", "free", "-exit-code", clean); code != 0 {
		t.Errorf("-exit-code clean: code %d", code)
	}
	// -exit-code also applies on the JSON output path.
	if _, code = runXgcc(t, dir, "-checker", "free", "-exit-code", "-json", buggy); code != 1 {
		t.Errorf("-exit-code -json with findings: code %d", code)
	}
	// Usage and environment errors stay exit 2.
	if _, code = runXgcc(t, dir, "-checker", "free"); code != 2 {
		t.Errorf("no inputs: code %d", code)
	}
	if _, code = runXgcc(t, dir, "-checker", "no-such-checker", buggy); code != 2 {
		t.Errorf("unknown checker: code %d", code)
	}
	if _, code = runXgcc(t, dir, "-checker", "free", filepath.Join(dir, "missing.c")); code != 2 {
		t.Errorf("missing input: code %d", code)
	}
}

// TestFunctionPointerResult: a file that defines a function returning a
// function pointer, and declares signal(2), parses, and the use after
// free beside them is reported.
func TestFunctionPointerResult(t *testing.T) {
	dir := t.TempDir()
	src := writeSrc(t, dir, "fp.c", "int g(int);\nvoid (*signal(int, void (*)(int)))(int);\nint (*pick(void))(int) { return g; }\n"+buggySrc)
	if out, code := runXgcc(t, dir, "-checker", "free", src); code != 0 || !strings.Contains(out, "fp.c:7:12: [free_checker] using p after free!") {
		t.Errorf("code %d, out %.300s; want the use after free at fp.c:7:12", code, out)
	}
}

// TestStatsRootsSkipped: -stats says, per checker, how many roots the
// compiled dispatch skipped. banned's "{ fn(args) } && ${ mc_is_call_to(fn,
// "gets") }" idiom is keyed by its callee names, none of which use_after
// calls, so it skips the one root and traverses nothing; free runs it.
func TestStatsRootsSkipped(t *testing.T) {
	dir := t.TempDir()
	buggy := writeSrc(t, dir, "buggy.c", buggySrc)
	out, code := runXgcc(t, dir, "-checker", "free,banned", "-stats", buggy)
	if code != 0 {
		t.Fatalf("code %d, out %.400s", code, out)
	}
	for _, want := range []string{
		"checker banned_checker: points=0 blocks=0 paths=0 pruned=0 cache-hits=0 fn-cache-hits=0 roots-skipped=1 recursion-cuts=0 fp-fallbacks=0 statics-held=0\n",
		"checker free_checker: points=6 blocks=4 paths=1 pruned=0 cache-hits=0 fn-cache-hits=0 roots-skipped=0 recursion-cuts=0 fp-fallbacks=0 statics-held=0\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("-stats lacks %q:\n%s", want, out)
		}
	}
}

// TestTimeoutExitCode3: an expired -timeout exits 3, distinct from
// findings (1) and errors (2), and -h documents the code map.
func TestTimeoutExitCode3(t *testing.T) {
	dir := t.TempDir()
	buggy := writeSrc(t, dir, "buggy.c", buggySrc)

	out, code := runXgcc(t, dir, "-checker", "free", "-timeout", "1ns", buggy)
	if code != 3 {
		t.Errorf("-timeout 1ns: code %d, want 3 (out %.200s)", code, out)
	}
	if !strings.Contains(out, "cancelled") {
		t.Errorf("timeout message missing: %.200s", out)
	}
	// A generous timeout behaves normally.
	if _, code = runXgcc(t, dir, "-checker", "free", "-timeout", "1m", buggy); code != 0 {
		t.Errorf("-timeout 1m: code %d, want 0", code)
	}
	// -h documents the exit-code contract.
	usage, _ := runXgcc(t, dir, "-h")
	if !strings.Contains(usage, "3 cancelled or timed out") {
		t.Errorf("usage does not document exit codes: %.300s", usage)
	}
}

// TestBudgetFlagReportsDegradation: a tripped traversal budget keeps
// exit code 0 but warns on stderr.
func TestBudgetFlagReportsDegradation(t *testing.T) {
	dir := t.TempDir()
	branchy := writeSrc(t, dir, "branchy.c", `void kfree(void *p);
int g(int *p, int c) {
    kfree(p);
    if (c) { return *p; }
    return 0;
}
`)
	out, code := runXgcc(t, dir, "-checker", "free", "-budget-path-steps", "1", branchy)
	if code != 0 {
		t.Fatalf("degraded run: code %d, out %.300s", code, out)
	}
	if !strings.Contains(out, "degraded") {
		t.Errorf("no degradation warning: %.300s", out)
	}
}

func TestCacheFlagWarmRunIdentical(t *testing.T) {
	dir := t.TempDir()
	buggy := writeSrc(t, dir, "buggy.c", buggySrc)
	cacheDir := filepath.Join(dir, "cache")

	cold, code := runXgcc(t, dir, "-checker", "free,null", "-cache", cacheDir, buggy)
	if code != 0 {
		t.Fatalf("cold run: code %d, out %.300s", code, cold)
	}
	warm, code := runXgcc(t, dir, "-checker", "free,null", "-cache", cacheDir, buggy)
	if code != 0 {
		t.Fatalf("warm run: code %d", code)
	}
	if cold != warm {
		t.Errorf("warm output differs from cold:\ncold:\n%s\nwarm:\n%s", cold, warm)
	}
	// -stats on a warm run reports the full replay: free's unit from the
	// store, null's settled as silent (buggy.c allocates nothing).
	stats, code := runXgcc(t, dir, "-checker", "free,null", "-cache", cacheDir, "-stats", buggy)
	if code != 0 || !strings.Contains(stats, "cache: files parsed=1; units live=0 replayed=1 silent=1;") {
		t.Errorf("warm -stats did not report a full replay: code %d, %.400s", code, stats)
	}
	// -supergraph keeps the cache: inspection is a run of its own, so a
	// run that fills the store and one that replays every unit from it
	// print the plain run's section.
	plain, _ := runXgcc(t, dir, "-checker", "free", "-supergraph", "use_after", buggy)
	graph := plain[strings.Index(plain, "--- supergraph"):]
	sgCache := filepath.Join(dir, "sg-cache")
	for run, want := range []string{"units live=1 replayed=0 silent=0;", "units live=0 replayed=1 silent=0;"} {
		cached, code := runXgcc(t, dir, "-checker", "free", "-cache", sgCache, "-supergraph", "use_after", "-stats", buggy)
		if code != 0 || !strings.Contains(graph, "->") || !strings.Contains(cached, graph) {
			t.Errorf("-supergraph through the cache, run %d, differs from the plain run:\nplain:\n%s\ncached:\n%s", run, plain, cached)
		}
		if !strings.Contains(cached, want) {
			t.Errorf("-supergraph -cache run %d: -stats does not say %q:\n%s", run, want, cached)
		}
	}
	// The cache directory holds the one packed log, and -stats says what
	// is in it and that no write failed.
	entries, err := os.ReadDir(cacheDir)
	if err != nil || len(entries) != 1 {
		t.Errorf("cache dir holds %d entries (%v), want the log alone", len(entries), err)
	}
	if !strings.Contains(stats, "put-errors=0\n") || !strings.Contains(stats, "store: records=") || strings.Contains(stats, "records=0 ") {
		t.Errorf("warm -stats did not report the store: %.600s", stats)
	}
}

// TestSupergraphRunsResident: every run retires what it has finished
// with, and -supergraph prints what its own inspection run's engines
// hold: byte for byte what a resident engine — a core.Engine nobody
// called SetRetire on — holds for the function at the end of its run.
func TestSupergraphRunsResident(t *testing.T) {
	ringbuf, err := filepath.Abs("../../testdata/corpus/ringbuf.c")
	if err != nil {
		t.Fatal(err)
	}
	src, err := os.ReadFile(ringbuf)
	if err != nil {
		t.Fatal(err)
	}
	p, err := prog.BuildSource(map[string]string{ringbuf: string(src)})
	if err != nil {
		t.Fatal(err)
	}
	s, _ := checkers.Lookup("interrupt")
	c := s.Checker
	resident := core.NewEngine(p, c, core.DefaultOptions())
	resident.RunContext(context.Background())
	want := "--- supergraph of ring_push under checker " + c.Name + " ---\n" + resident.SupergraphString("ring_push")
	if strings.Count(want, "\nB") != 9 || !strings.Contains(want, "->") {
		t.Fatalf("the resident engine rendered %d blocks, want 9 and some edges:\n%s", strings.Count(want, "\nB"), want)
	}
	out, code := runXgcc(t, t.TempDir(), "-checker", "interrupt", "-supergraph", "ring_push", ringbuf)
	if code != 0 || !strings.HasSuffix(out, "reports\n"+want) {
		t.Errorf("-supergraph (code %d) printed:\n%s\nthe resident engine holds:\n%s", code, out, want)
	}
}

// TestSupergraphSectionsSorted: with several checkers -supergraph prints
// one section per checker in checker-name order, the same on every run,
// not in the order a map happens to yield them.
func TestSupergraphSectionsSorted(t *testing.T) {
	ringbuf, err := filepath.Abs("../../testdata/corpus/ringbuf.c")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	first, code := runXgcc(t, dir, "-checker", "null,free,lock", "-supergraph", "ring_push", ringbuf)
	if code != 0 {
		t.Fatalf("-supergraph with three checkers: code %d:\n%s", code, first)
	}
	var headers []string
	for _, line := range strings.Split(first, "\n") {
		if strings.HasPrefix(line, "--- supergraph of ") {
			headers = append(headers, line)
		}
	}
	if len(headers) != 3 || !sort.StringsAreSorted(headers) {
		t.Errorf("section headers %q, want three in checker-name order", headers)
	}
	if second, _ := runXgcc(t, dir, "-checker", "null,free,lock", "-supergraph", "ring_push", ringbuf); second != first {
		t.Errorf("two -supergraph runs differ:\n%s\n---\n%s", first, second)
	}
}

// TestRemovedFlagRejected: the spill store went and -spill-dir with it;
// a run has one mode and the switch between two went with the other.
func TestRemovedFlagRejected(t *testing.T) {
	dir := t.TempDir()
	buggy := writeSrc(t, dir, "buggy.c", buggySrc)
	for _, flag := range []string{"-spill-dir", "-max-" + "resident-mb"} {
		out, code := runXgcc(t, dir, flag, "1", buggy)
		if code != 2 || !strings.Contains(out, "flag provided but not defined: "+flag) {
			t.Errorf("%s: code %d, want 2 and an unknown-flag error: %.200s", flag, code, out)
		}
	}
}

func TestBaselineSuppressionAndAtomicity(t *testing.T) {
	dir := t.TempDir()
	buggy := writeSrc(t, dir, "buggy.c", buggySrc)
	baseline := filepath.Join(dir, "baseline.json")

	out1, code := runXgcc(t, dir, "-checker", "free", "-baseline", baseline, buggy)
	if code != 0 || strings.Contains(out1, "0 reports") {
		t.Fatalf("first baseline run: code %d, out %.200s", code, out1)
	}
	// Second run: everything recorded, so everything suppressed.
	out2, code := runXgcc(t, dir, "-checker", "free", "-baseline", baseline, buggy)
	if code != 0 || !strings.Contains(out2, "0 reports") {
		t.Errorf("second baseline run not suppressed: code %d, out %.200s", code, out2)
	}
	// No temp files may survive the atomic rename.
	files, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if strings.Contains(f.Name(), ".tmp-") {
			t.Errorf("leftover temp file %s", f.Name())
		}
	}
}

func TestAtomicWriteReplacesAndCleansUp(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.json")
	if err := os.WriteFile(path, []byte("old"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := atomicWrite(path, []byte("new")); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil || string(data) != "new" {
		t.Errorf("read back %q, err %v", data, err)
	}
	files, _ := os.ReadDir(dir)
	if len(files) != 1 {
		t.Errorf("%d files left in dir, want 1", len(files))
	}
}
