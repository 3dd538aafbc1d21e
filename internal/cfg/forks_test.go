package cfg

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cc"
	"repro/internal/workload"
)

// forkFaults lists where g breaks the two invariants the engine's DFS
// relies on (core's descend goes on to a non-branch block's one
// successor without a split): only a block with Cond or Switch has more
// than one successor, and every edge out of a Cond block is EdgeTrue or
// EdgeFalse.
func forkFaults(g *Graph) []string {
	var out []string
	for _, b := range g.Blocks {
		if len(b.Succs) > 1 && b.Cond() == nil && b.Switch() == nil {
			out = append(out, fmt.Sprintf("%s: B%d has %d successors and no branch", g.Fn.Name, b.ID, len(b.Succs)))
		}
		for _, e := range b.Succs {
			if b.Cond() != nil && e.Kind != EdgeTrue && e.Kind != EdgeFalse {
				out = append(out, fmt.Sprintf("%s: B%d's condition has an edge of kind %d", g.Fn.Name, b.ID, e.Kind))
			}
		}
	}
	return out
}

// corpusSources reads the C files the glob names.
func corpusSources(tb testing.TB, glob string) map[string]string {
	tb.Helper()
	paths, err := filepath.Glob(glob)
	if err != nil || len(paths) == 0 {
		tb.Fatalf("%s: no files (%v)", glob, err)
	}
	out := map[string]string{}
	for _, p := range paths {
		src, err := os.ReadFile(p)
		if err != nil {
			tb.Fatal(err)
		}
		out[p] = string(src)
	}
	return out
}

// TestOnlyBranchesFork holds forkFaults' invariants over the checked-in
// C, the call-rich tree and two generated trees. The shapes in
// cfg_test.go are held to them by buildFor.
func TestOnlyBranchesFork(t *testing.T) {
	mixed, _ := workload.MixedTree(4, 25, 2002)
	inputs := []map[string]string{
		corpusSources(t, "../../testdata/corpus/*.c"),
		corpusSources(t, "../../testdata/rootorder/*.c"),
		corpusSources(t, "../core/testdata/whytrace.c"),
		workload.CallRichTree(),
		mixed,
		workload.LinuxLike(4, 25, 2002),
	}
	forks := 0
	for _, srcs := range inputs {
		for name, src := range srcs {
			f, err := cc.ParseFile(name, src)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			for _, fd := range f.Funcs() {
				g := Build(fd)
				for _, fault := range forkFaults(g) {
					t.Errorf("%s: %s", name, fault)
				}
				for _, b := range g.Blocks {
					if len(b.Succs) > 1 {
						forks++
					}
				}
			}
		}
	}
	t.Logf("%d blocks with more than one successor", forks)
	// The invariants must have had forks to hold over.
	if forks < 100 {
		t.Errorf("%d blocks with more than one successor, want at least 100", forks)
	}

	// A repeated label: the parser rejects it, and a built AST that
	// repeats one (here M renamed to L) still gets a one-successor block
	// per label, with the exit reachable past both.
	if _, err := cc.ParseFile("dup.c", repeatedLabel); err == nil {
		t.Errorf("%q parsed; want a duplicate-label error", repeatedLabel)
	}
	f, err := cc.ParseFile("dup.c", strings.Replace(repeatedLabel, "L:;", "M:;", 1))
	if err != nil {
		t.Fatal(err)
	}
	fd := f.Funcs()[0]
	fd.Body.List[1].(*cc.LabeledStmt).Label = "L"
	g := Build(fd)
	for _, fault := range forkFaults(g) {
		t.Error(fault)
	}
	if !reaches(g.Entry, g.Exit, map[*Block]bool{}) {
		t.Errorf("repeated label: exit unreachable\n%s", g)
	}
}

// repeatedLabel repeats a label after a malloc whose leak is only seen
// at the exit.
const repeatedLabel = "void *malloc(unsigned long); void f(void) { char *p = malloc(1); L:; L:; }"

// reaches reports whether to is reachable from b.
func reaches(b, to *Block, seen map[*Block]bool) bool {
	if b == to {
		return true
	}
	if seen[b] {
		return false
	}
	seen[b] = true
	for _, e := range b.Succs {
		if reaches(e.To, to, seen) {
			return true
		}
	}
	return false
}

// FuzzBuildCFG: no source panics the parser, and every function of a
// source that parses builds a CFG that keeps forkFaults' invariants.
func FuzzBuildCFG(f *testing.F) {
	for _, src := range corpusSources(f, "../../testdata/corpus/*.c") {
		f.Add(src)
	}
	f.Add("void f(void) { L:; L:; }")
	f.Add(repeatedLabel)
	f.Fuzz(func(t *testing.T, src string) {
		file, err := cc.ParseFile("fuzz.c", src)
		if err != nil {
			return
		}
		for _, fd := range file.Funcs() {
			if faults := forkFaults(Build(fd)); len(faults) > 0 {
				t.Fatalf("%q", faults)
			}
		}
	})
}
