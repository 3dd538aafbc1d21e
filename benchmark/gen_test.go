package main

import (
	"strings"
	"testing"

	"repro/internal/cc"
	"repro/internal/prog"
	"repro/mc"
)

func callTree(t *testing.T, files int, seed int64) Tree {
	t.Helper()
	tr, err := CallTree(files, seed)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestCallTreeDeterministicInSeed(t *testing.T) {
	a, b, c := callTree(t, 5, 7), callTree(t, 5, 7), callTree(t, 5, 8)
	if len(a.Srcs) != 5 {
		t.Fatalf("got %d files, want 5", len(a.Srcs))
	}
	differs := false
	for name, src := range a.Srcs {
		if b.Srcs[name] != src {
			t.Errorf("%s: same seed, different bytes", name)
		}
		differs = differs || c.Srcs[name] != src
	}
	if !differs {
		t.Error("a different seed produced the same tree")
	}
	if len(a.Bugs) != len(b.Bugs) {
		t.Errorf("same seed, %d vs %d bugs", len(a.Bugs), len(b.Bugs))
	}
}

func TestCallTreeShape(t *testing.T) {
	tr := callTree(t, 6, 2002)
	for name, src := range tr.Srcs {
		if _, err := cc.ParseFile(name, src); err != nil {
			t.Fatalf("%s does not parse: %v", name, err)
		}
	}
	p, err := prog.BuildSource(tr.Srcs)
	if err != nil {
		t.Fatal(err)
	}
	if want := 6 * (leavesPerFile + midsPerFile + topsPerFile); len(p.All) != want {
		t.Errorf("%d functions, want %d", len(p.All), want)
	}
	if units := len(p.Units()); units >= len(p.All)/2 {
		t.Errorf("%d units for %d functions: want fewer than half", units, len(p.All))
	}
	called := 0
	var depth func(fn *prog.Function) int
	depth = func(fn *prog.Function) int {
		d := 0
		for _, c := range fn.Callees {
			if cd := depth(c); cd > d {
				d = cd
			}
		}
		return d + 1
	}
	maxDepth := 0
	for _, fn := range p.All {
		if len(fn.Callers) > 0 {
			called++
		}
		if d := depth(fn); d > maxDepth {
			maxDepth = d
		}
	}
	if maxDepth < 3 {
		t.Errorf("call depth %d, want at least 3", maxDepth)
	}
	if share := float64(called) / float64(len(p.All)); share < 0.40 {
		t.Errorf("%.0f%% of functions have a caller, want at least 40%%", 100*share)
	}
	seeded := 0
	for _, b := range tr.Bugs {
		if strings.Contains(b.Func, "_mid_") {
			seeded++
			if fn := p.Lookup(b.Func); fn == nil || len(fn.Callees) == 0 {
				t.Errorf("seeded bug in %s, which calls nothing", b.Func)
			}
		}
	}
	if seeded == 0 || seeded == len(tr.Bugs) {
		t.Errorf("%d of %d bugs are seeded caller-side bugs: want leaf bugs and seeded ones", seeded, len(tr.Bugs))
	}
}

// The ground truth is the generator's; the suite has to find it.
func TestGroundTruthIsReported(t *testing.T) {
	for _, tr := range []Tree{callTree(t, 4, 11), LeafTree(2, 11)} {
		res, err := analyze(tr.Srcs, mc.RunConfig{Jobs: 1})
		if err != nil {
			t.Fatal(err)
		}
		if n := missed(tr.Bugs, reportedIn(res.Reports)); n != 0 {
			t.Errorf("%d of %d seeded bugs not reported", n, len(tr.Bugs))
		}
	}
	bugs := callTree(t, 4, 11).Bugs
	if n := missed(bugs, map[string]bool{}); n != len(bugs) {
		t.Errorf("with no reports %d of %d bugs count as missed", n, len(bugs))
	}
}

func TestEditsChangeOneFunction(t *testing.T) {
	tr := callTree(t, 4, 3)
	names := sortedNames(tr.Srcs)
	hashes := func(srcs map[string]string) map[string]string {
		out := map[string]string{}
		for _, n := range names {
			f, err := cc.ParseFile(n, srcs[n])
			if err != nil {
				t.Fatal(err)
			}
			for _, fd := range f.Funcs() {
				out[fd.Name] = cc.HashDecl(fd)
			}
		}
		return out
	}
	p, err := prog.BuildSource(tr.Srcs)
	if err != nil {
		t.Fatal(err)
	}
	before := hashes(tr.Srcs)
	cur := tr.Srcs
	for i := 0; i < 2*len(names); i++ {
		file, edit := editAt(names, i)
		next := edit.Apply(cur)
		var changed []string
		after := hashes(next)
		for fn, h := range after {
			if before[fn] != h {
				changed = append(changed, fn)
			}
		}
		if len(changed) != 1 {
			t.Fatalf("edit %d (%s) changed %d functions %v, want 1", i, edit.Name, len(changed), changed)
		}
		for n := range next {
			if n != file && next[n] != cur[n] {
				t.Errorf("edit %d (%s) touched %s", i, edit.Name, n)
			}
		}
		fn := p.Lookup(changed[0])
		if first := strings.HasPrefix(edit.Name, "first-return"); first != (len(fn.Callers) > 0) {
			t.Errorf("edit %d (%s) changed %s, which has %d callers", i, edit.Name, fn.Name, len(fn.Callers))
		}
		cur, before = next, after
	}
}
