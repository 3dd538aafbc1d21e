package main

// Inputs. The analyzer sees only the generated sources; everything
// here derives from the benchmark's -seed.
//
// workload.MixedTree is the historical shape: leaf functions only, one
// function per call-graph unit. CallTree puts two caller layers on top
// of the same leaves so that function summaries, refine/restore and
// multi-function units do work, which is what §5–§6 of the paper are
// about and what no BENCH_*.json file ever exercised.

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"repro/internal/cc"
	"repro/internal/cfg"
	"repro/internal/workload"
)

const (
	leavesPerFile = 25
	midsPerFile   = 8
	topsPerFile   = 3
	diamonds      = 4
	// groupFiles bounds how far call edges reach: cross-file calls stay
	// inside a group of this many consecutive files, so a tree has one
	// multi-function unit per group (plus its uncalled leaves) rather
	// than one giant component that every edit would dirty.
	groupFiles = 4
)

// Tree is one generated source tree with its ground truth.
type Tree struct {
	Srcs map[string]string
	Bugs []workload.Bug
}

// Size describes a tree for the result JSON and the kloc/min line.
type Size struct {
	Files int `json:"files"`
	Lines int `json:"lines"`
	Funcs int `json:"funcs"`
	Units int `json:"units"`
}

// LeafTree is workload.MixedTree(files, 25, seed).
func LeafTree(files int, seed int64) Tree {
	srcs, bugs := workload.MixedTree(files, leavesPerFile, seed)
	return Tree{Srcs: srcs, Bugs: bugs}
}

// leaf is what a caller needs to know about one MixedTree function;
// it is read from the parsed source, never restated.
type leaf struct {
	name   string
	void   bool   // result type is void
	params []bool // one per parameter: true = pointer
	// leavesFreed: some path through the leaf kfrees its pointer
	// parameter and returns without the leaf itself reading it again,
	// so a caller that reads it afterwards has a use-after-free.
	leavesFreed bool
}

func (l leaf) proto() string {
	ret := "int"
	if l.void {
		ret = "void"
	}
	ps := make([]string, len(l.params))
	for i, ptr := range l.params {
		if ptr {
			ps[i] = fmt.Sprintf("int *a%d", i)
		} else {
			ps[i] = fmt.Sprintf("int a%d", i)
		}
	}
	if len(ps) == 0 {
		ps = []string{"void"}
	}
	return fmt.Sprintf("%s %s(%s);\n", ret, l.name, strings.Join(ps, ", "))
}

// call renders a call statement from a caller that has `int *p`,
// `int n` and `int acc` in scope.
func (l leaf) call() string {
	args := make([]string, len(l.params))
	ints := 0
	for i, ptr := range l.params {
		switch {
		case ptr:
			args[i] = "p"
		case ints == 0:
			args[i] = "n"
			ints++
		default:
			args[i] = fmt.Sprintf("n + %d", ints)
			ints++
		}
	}
	c := fmt.Sprintf("%s(%s);\n", l.name, strings.Join(args, ", "))
	if l.void {
		return c
	}
	return "acc += " + c
}

// readLeaves parses one MixedTree file and returns its functions in
// source order plus the index of the one holding the file's first
// top-level return (the first-return edit's target).
func readLeaves(name, src string, bugKind map[string]string) ([]leaf, int, error) {
	f, err := cc.ParseFile(name, src)
	if err != nil {
		return nil, 0, err
	}
	firstRet := strings.Count(src[:firstReturn(src)], "\n") + 1
	var out []leaf
	target := 0
	for i, fd := range f.Funcs() {
		l := leaf{name: fd.Name, void: fd.Result == nil || fd.Result.Kind == cc.TypeVoid}
		ptr := ""
		for _, p := range fd.Params {
			l.params = append(l.params, p.Type.IsPointer())
			if p.Type.IsPointer() {
				ptr = p.Name
			}
		}
		// A leaf whose own seeded bug is the use-after-free reads the
		// pointer itself; the free checker stops tracking an object at
		// its first error, so only the other freeing shapes can seed
		// a caller-side bug the suite is able to see.
		l.leavesFreed = ptr != "" && bugKind[fd.Name] == "" && callsKfree(fd, ptr)
		if fd.P.Line <= firstRet {
			target = i
		}
		out = append(out, l)
	}
	return out, target, nil
}

// callsKfree reports whether fd contains the call kfree(<arg>).
func callsKfree(fd *cc.FuncDecl, arg string) bool {
	for _, b := range cfg.Build(fd).Blocks {
		for _, c := range cfg.CallsIn(b) {
			fn, ok := c.Fun.(*cc.Ident)
			if !ok || fn.Name != "kfree" || len(c.Args) != 1 {
				continue
			}
			if id, ok := c.Args[0].(*cc.Ident); ok && id.Name == arg {
				return true
			}
		}
	}
	return false
}

// The call structure is stratified: every file has the same fan-in
// shape, and the seed decides only which leaf takes which rank and
// which mid gets which callsite. Drawing callees independently instead
// made the unit count, and with it every cost that scales with units,
// swing by several percent from seed to seed.
var (
	// midCallees is how many leaves each mid calls.
	midCallees = [midsPerFile]int{3, 2, 3, 2, 3, 2, 3, 2}
	// ownRanks and farRanks are one file's callsites, as ranks of the
	// called leaf in its own file: a few helpers collect many callsites
	// (the CallsiteFanout shape) and most leaves keep none. Far
	// callsites, about a third, go to the group's next file.
	ownRanks = []int{0, 0, 0, 1, 1, 2, 2, 3, 4, 5, 6, 7, 8, 9}
	farRanks = []int{0, 1, 2, 3, 4, 5}
)

// seededMid says which mids carry the seeded interprocedural bug. They
// stay roots: the engine analyzes a function only in the contexts its
// callers supply, and a top may hand over a pointer an earlier callee
// already freed, which would mask the seeded read.
func seededMid(j int) bool { return j%4 == 1 }

// CallTree generates files*(25 leaves + 8 mids + 3 tops) functions.
// Mids call 2–3 leaves (about a third of the callees cross-file) under
// if/else; tops kmalloc, run four sequential diamonds, call two mids
// (one in the next file of the group) and kfree. Ground truth is the
// leaf bugs plus one seeded free-in-callee/use-in-caller bug for every
// seeded mid: it hands its pointer to a leaf that frees it and then
// reads it.
func CallTree(files int, seed int64) (Tree, error) {
	leafSrcs, bugs := workload.MixedTree(files, leavesPerFile, seed)
	bugKind := map[string]string{}
	for _, b := range bugs {
		bugKind[b.Func] = b.Kind
	}
	// A second stream keeps the caller layers from perturbing the leaf
	// draw: leaf-L and calls-* share leaf bodies for equal seeds.
	rng := rand.New(rand.NewSource(seed ^ 0x63616c6c))
	name := func(f int) string { return fmt.Sprintf("tree_%d.c", f) }
	mid := func(f, j int) string { return fmt.Sprintf("f%d_mid_%d", f, j) }

	// ranked[f] orders f's callable leaves by rank; rank 0 is the leaf
	// the first-return edit lands in, so that edit dirties callers.
	// reserved[f] are freeing leaves set aside for f's seeded mids, one
	// each, and called by nobody else: at HEAD a hot helper's function
	// summary, first built in another caller's context, hides the
	// caller-side report (README, finding 4), and a benchmark workload
	// may not contain an operation that fails.
	ranked := make([][]leaf, files)
	reserved := make([][]leaf, files)
	for f := 0; f < files; f++ {
		leaves, firstRet, err := readLeaves(name(f), leafSrcs[name(f)], bugKind)
		if err != nil {
			return Tree{}, fmt.Errorf("calltree: %w", err)
		}
		ranked[f] = []leaf{leaves[firstRet]}
		for _, i := range rng.Perm(len(leaves)) {
			switch l := leaves[i]; {
			case i == firstRet:
			case l.leavesFreed && len(reserved[f]) < midsPerFile/4:
				reserved[f] = append(reserved[f], l)
			default:
				ranked[f] = append(ranked[f], l)
			}
		}
	}
	// neighbour returns the next file of f's group, cyclically.
	neighbour := func(f int) int {
		lo := f / groupFiles * groupFiles
		hi := lo + groupFiles
		if hi > files {
			hi = files
		}
		return lo + (f-lo+1)%(hi-lo)
	}
	// callable lists the mids tops may call.
	var callable []int
	for j := 0; j < midsPerFile; j++ {
		if !seededMid(j) {
			callable = append(callable, j)
		}
	}

	called := map[string]bool{}
	out := make(map[string]string, files)
	for f := 0; f < files; f++ {
		g := neighbour(f)
		var protos, body strings.Builder
		declared := map[string]bool{}
		declare := func(name, proto string) {
			if g != f && !declared[name] {
				declared[name] = true
				protos.WriteString(proto)
			}
		}
		// The file's callsites in a seeded order, an own-file call to
		// rank 0 first.
		sites := make([]leaf, 0, len(ownRanks)+len(farRanks))
		for _, r := range ownRanks {
			sites = append(sites, ranked[f][r])
		}
		for _, r := range farRanks {
			l := ranked[g][r]
			declare(l.name, l.proto())
			sites = append(sites, l)
		}
		rest := sites[1:]
		rng.Shuffle(len(rest), func(i, j int) { rest[i], rest[j] = rest[j], rest[i] })
		for j := 0; j < midsPerFile; j++ {
			callees := sites[:midCallees[j]]
			sites = sites[midCallees[j]:]
			fmt.Fprintf(&body, "int %s(int *p, int n) {\n    int acc = 0;\n", mid(f, j))
			if seededMid(j) && len(reserved[f]) > 0 {
				l := reserved[f][0]
				reserved[f] = reserved[f][1:]
				body.WriteString("    " + l.call() + "    acc += *p;\n")
				bugs = append(bugs, workload.Bug{Kind: "use-after-free", Func: mid(f, j)})
				called[l.name] = true
			}
			for _, l := range callees {
				called[l.name] = true
			}
			fmt.Fprintf(&body, "    if (n > %d) {\n        %s    } else {\n", j, callees[0].call())
			for _, l := range callees[1:] {
				body.WriteString("        " + l.call())
			}
			body.WriteString("        acc -= 1;\n    }\n    return acc;\n}\n")
		}
		own, far := rng.Perm(len(callable)), rng.Perm(len(callable))
		for k := 0; k < topsPerFile; k++ {
			farMid := mid(g, callable[far[k]])
			declare(farMid, fmt.Sprintf("int %s(int *a0, int a1);\n", farMid))
			fmt.Fprintf(&body, "int f%d_top_%d(int n", f, k)
			for d := 0; d < diamonds; d++ {
				fmt.Fprintf(&body, ", int c%d", d)
			}
			body.WriteString(") {\n    int acc = 0;\n    int *p = kmalloc(n);\n    if (!p)\n        return -1;\n")
			for d := 0; d < diamonds; d++ {
				fmt.Fprintf(&body, "    if (c%d) { acc += %d; } else { acc -= %d; }\n", d, d+1, d+1)
			}
			fmt.Fprintf(&body, "    acc += %s(p, n);\n    acc += %s(p, acc);\n    kfree(p);\n    return acc;\n}\n",
				mid(f, callable[own[k]]), farMid)
		}
		out[name(f)] = leafSrcs[name(f)] + protos.String() + body.String()
	}
	// A lock or interrupt state left behind by a called leaf surfaces at
	// the end of the caller's path, not in the leaf, so those leaf bugs
	// are ground truth "in Func" only while the leaf stays a root.
	truth := bugs[:0]
	for _, b := range bugs {
		if called[b.Func] && (b.Kind == "missing-unlock" || b.Kind == "interrupt") {
			continue
		}
		truth = append(truth, b)
	}
	return Tree{Srcs: out, Bugs: truth}, nil
}

// firstReturn is the offset of the file's first top-level return
// statement (four-space indent exactly), or -1.
func firstReturn(src string) int {
	i := strings.Index(src, "\n    return")
	if i < 0 {
		return -1
	}
	return i + 1
}

// firstReturnEdit puts a no-op statement in front of the file's first
// top-level return, on the same line: positions are part of a
// function's identity, so an inserted line would re-key every later
// function of the file, not just the edited one. CallTree guarantees
// the edited function has callers, so the dirty closure climbs the
// call graph; workload.TweakBody edits the last return, which belongs
// to a root with nothing after it.
func firstReturnEdit(file string) workload.Edit {
	return workload.Edit{
		Name: "first-return " + file,
		Apply: func(srcs map[string]string) map[string]string {
			out := make(map[string]string, len(srcs))
			for k, v := range srcs {
				out[k] = v
			}
			if i := firstReturn(out[file]); i >= 0 {
				i += len("    ")
				out[file] = out[file][:i] + "if (0) { } " + out[file][i:]
			}
			return out
		},
	}
}

// editAt is the i-th edit of a workload's edit stream and the file it
// touches: first-return and tweak-body alternate, rotating over the
// files.
func editAt(files []string, i int) (string, workload.Edit) {
	file := files[i%len(files)]
	if (i+i/len(files))%2 == 0 {
		return file, firstReturnEdit(file)
	}
	return file, workload.TweakBody(file)
}

func sortedNames(srcs map[string]string) []string {
	names := make([]string, 0, len(srcs))
	for n := range srcs {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
