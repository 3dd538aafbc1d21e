// Package workload generates synthetic systems-C programs with seeded
// bug populations. The paper evaluates on Linux/BSD source trees; this
// generator is the substitution documented in DESIGN.md — it
// parameterizes exactly the axes the paper's claims are about (path
// counts, tracked-instance counts, callsite fan-out, contradictory
// branches, rule reliability) so the experiment harness can reproduce
// the claims' shape without the original trees.
package workload

import (
	"fmt"
	"math/rand"
	"strings"
)

// Config parameterizes the general-purpose kernel-ish generator.
type Config struct {
	Seed int64
	// Functions is the number of generated leaf functions.
	Functions int
	// BranchesPerFunc controls path structure.
	BranchesPerFunc int
	// BugRate is the fraction (0..1) of functions seeded with a
	// use-after-free bug.
	BugRate float64
	// CallDepth chains helpers: each function calls the next layer.
	CallDepth int
}

// Bug describes a seeded defect for ground-truth scoring.
type Bug struct {
	Kind string // "use-after-free", "double-free", "missing-unlock"
	Func string
	Line int
}

// Program is generated source plus its ground truth.
type Program struct {
	Source string
	Bugs   []Bug
	// Funcs is the number of functions emitted.
	Funcs int
}

const prologue = `void kfree(void *p);
void *kmalloc(unsigned long n);
void lock(int *l);
void unlock(int *l);
int trylock(int *l);
void cli(void);
void sti(void);
int printk(const char *fmt, ...);
`

// UseAfterFree generates Functions leaf functions that allocate, free,
// and touch pointers; BugRate of them dereference after the free.
func UseAfterFree(cfg Config) Program {
	rng := rand.New(rand.NewSource(cfg.Seed))
	var sb strings.Builder
	sb.WriteString(prologue)
	var bugs []Bug
	line := strings.Count(prologue, "\n") + 1

	emit := func(s string) {
		sb.WriteString(s)
		line += strings.Count(s, "\n")
	}

	for i := 0; i < cfg.Functions; i++ {
		name := fmt.Sprintf("work_%d", i)
		buggy := rng.Float64() < cfg.BugRate
		emit(fmt.Sprintf("int %s(int *p, int n) {\n", name))
		emit("    int acc = 0;\n")
		for b := 0; b < cfg.BranchesPerFunc; b++ {
			emit(fmt.Sprintf("    if (n > %d)\n        acc += %d;\n", b, b+1))
		}
		emit("    acc += *p;\n")
		emit("    kfree(p);\n")
		if buggy {
			bugLine := line
			emit("    acc += *p;\n")
			bugs = append(bugs, Bug{Kind: "use-after-free", Func: name, Line: bugLine})
		}
		emit("    return acc;\n}\n")
	}

	// Call-depth chains: each driver calls a ladder of helpers ending
	// in a leaf, exercising the interprocedural machinery.
	for d := 0; d < cfg.CallDepth; d++ {
		emit(fmt.Sprintf("int layer_%d(int *p, int n) {\n", d))
		if d == 0 {
			emit("    return work_0(p, n);\n")
		} else {
			emit(fmt.Sprintf("    return layer_%d(p, n + 1);\n", d-1))
		}
		emit("}\n")
	}
	emit("int driver(int *p, int n) {\n")
	if cfg.CallDepth > 0 {
		emit(fmt.Sprintf("    return layer_%d(p, n);\n", cfg.CallDepth-1))
	} else {
		emit("    return 0;\n")
	}
	emit("}\n")

	return Program{Source: sb.String(), Bugs: bugs, Funcs: cfg.Functions + cfg.CallDepth + 1}
}

// DiamondChain builds one function with n sequential if/else diamonds
// (2^n paths) — the F4 caching workload. The pointer keeps one tracked
// instance alive through the whole chain.
func DiamondChain(n int) Program {
	var sb strings.Builder
	sb.WriteString(prologue)
	sb.WriteString("int diamonds(int *p")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, ", int c%d", i)
	}
	sb.WriteString(") {\n    int acc = 0;\n    kfree(p);\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, "    if (c%d) { acc += %d; } else { acc -= %d; }\n", i, i+1, i+1)
	}
	sb.WriteString("    return acc;\n}\n")
	return Program{Source: sb.String(), Funcs: 1}
}

// InstanceScaling builds one function tracking k freed pointers at
// once — the E1 independence workload (§5.2: with independence the
// number of point visits "scales linearly with the number of these
// instances").
func InstanceScaling(k, branches int) Program {
	var sb strings.Builder
	sb.WriteString(prologue)
	sb.WriteString("int scaling(")
	for i := 0; i < k; i++ {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "int *p%d", i)
	}
	if k == 0 {
		sb.WriteString("void")
	}
	sb.WriteString(") {\n    int acc = 0;\n")
	for i := 0; i < k; i++ {
		fmt.Fprintf(&sb, "    kfree(p%d);\n", i)
	}
	for b := 0; b < branches; b++ {
		fmt.Fprintf(&sb, "    if (acc > %d) { acc += 1; }\n", b)
	}
	sb.WriteString("    return acc;\n}\n")
	return Program{Source: sb.String(), Funcs: 1}
}

// CallsiteFanout builds m callsites to one shared helper — the E2
// function-summary workload. Every site frees its pointer after the
// call: the helper is always entered in the same state (nothing
// tracked), and no root is inert under the free checker.
func CallsiteFanout(m int) Program {
	var sb strings.Builder
	sb.WriteString(prologue)
	sb.WriteString(`int helper(int *h, int n) {
    int acc = 0;
    if (n > 0)
        acc = *h;
    else
        acc = n;
    return acc;
}
`)
	for i := 0; i < m; i++ {
		fmt.Fprintf(&sb, "int site_%d(int *p) {\n    int r = helper(p, %d);\n    kfree(p);\n    return r;\n}\n", i, i)
	}
	return Program{Source: sb.String(), Funcs: m + 1}
}

// ContradictoryBranches builds functions in the Figure 2 style: the
// free happens under if (flag) and the only re-use sits under the
// contradictory if (!flag), so every report on them is a false
// positive unless FPP prunes the infeasible path. realBugs of the
// functions also contain a genuine use on the feasible path.
func ContradictoryBranches(funcs int, realBugRate float64, seed int64) Program {
	rng := rand.New(rand.NewSource(seed))
	var sb strings.Builder
	sb.WriteString(prologue)
	var bugs []Bug
	line := strings.Count(prologue, "\n") + 1
	emit := func(s string) {
		sb.WriteString(s)
		line += strings.Count(s, "\n")
	}
	for i := 0; i < funcs; i++ {
		name := fmt.Sprintf("contra_%d", i)
		real := rng.Float64() < realBugRate
		emit(fmt.Sprintf("int %s(int *p, int flag) {\n", name))
		emit("    if (flag) {\n        kfree(p);\n    }\n")
		emit("    if (!flag)\n        return *p;\n") // infeasible FP site
		if real {
			bugLine := line
			emit("    return *p;\n") // feasible true bug
			bugs = append(bugs, Bug{Kind: "use-after-free", Func: name, Line: bugLine})
		} else {
			emit("    return 0;\n")
		}
		emit("}\n")
	}
	return Program{Source: sb.String(), Bugs: bugs, Funcs: funcs}
}

// LockReliability builds the E5 statistical-ranking population: a
// reliable locking rule followed in most functions and violated in a
// few (true bugs), plus wrapper-style functions the analysis cannot
// handle, which generate dense false violations (the paper's "local
// explosion of error reports").
func LockReliability(goodFuncs, trueBugs, wrapperCalls int) Program {
	var sb strings.Builder
	sb.WriteString(prologue)
	sb.WriteString("int mutex;\n")
	var bugs []Bug
	line := strings.Count(prologue, "\n") + 2
	emit := func(s string) {
		sb.WriteString(s)
		line += strings.Count(s, "\n")
	}
	for i := 0; i < goodFuncs; i++ {
		emit(fmt.Sprintf("void balanced_%d(void) {\n    lock(&mutex);\n    unlock(&mutex);\n}\n", i))
	}
	for i := 0; i < trueBugs; i++ {
		name := fmt.Sprintf("forgot_%d", i)
		bugLine := line + 1
		emit(fmt.Sprintf("void %s(void) {\n    lock(&mutex);\n}\n", name))
		bugs = append(bugs, Bug{Kind: "missing-unlock", Func: name, Line: bugLine})
	}
	// Wrapper functions: acquire-only / release-only by design. Every
	// "violation" the checker reports on their callers is analysis
	// noise.
	emit("void acquire_wrapper(void) {\n    lock(&mutex);\n}\n")
	emit("void release_wrapper(void) {\n    unlock(&mutex);\n}\n")
	for i := 0; i < wrapperCalls; i++ {
		emit(fmt.Sprintf("void wrapped_%d(void) {\n    acquire_wrapper();\n    release_wrapper();\n}\n", i))
	}
	return Program{Source: sb.String(), Bugs: bugs, Funcs: goodFuncs + trueBugs + wrapperCalls + 2}
}

// PairedCalls builds the rule-inference population: a()/b() paired in
// follow functions, omitted in violate functions, plus unrelated
// noise calls.
func PairedCalls(followed, violated, noise int, seed int64) Program {
	rng := rand.New(rand.NewSource(seed))
	var sb strings.Builder
	sb.WriteString(prologue)
	sb.WriteString("void res_acquire(void);\nvoid res_release(void);\nvoid misc_a(void);\nvoid misc_b(void);\n")
	sb.WriteString("void res_acquire(void) {}\nvoid res_release(void) {}\nvoid misc_a(void) {}\nvoid misc_b(void) {}\n")
	for i := 0; i < followed; i++ {
		fmt.Fprintf(&sb, "void pair_ok_%d(void) {\n    res_acquire();\n", i)
		if rng.Intn(2) == 0 {
			sb.WriteString("    misc_a();\n")
		}
		sb.WriteString("    res_release();\n}\n")
	}
	for i := 0; i < violated; i++ {
		fmt.Fprintf(&sb, "void pair_bad_%d(void) {\n    res_acquire();\n    misc_b();\n}\n", i)
	}
	for i := 0; i < noise; i++ {
		fmt.Fprintf(&sb, "void noise_%d(void) {\n", i)
		if rng.Intn(2) == 0 {
			sb.WriteString("    misc_a();\n    misc_b();\n")
		} else {
			sb.WriteString("    misc_b();\n    misc_a();\n")
		}
		sb.WriteString("}\n")
	}
	return Program{Source: sb.String(), Funcs: followed + violated + noise + 4}
}

// LinuxLike approximates a small driver tree: several files, structs,
// typedefs, interrupt regions, lock regions, allocation lifecycles,
// and a configurable seeded bug mix. Used by the scale benchmark and
// the quickstart examples.
func LinuxLike(files, funcsPerFile int, seed int64) map[string]string {
	rng := rand.New(rand.NewSource(seed))
	out := map[string]string{}
	for f := 0; f < files; f++ {
		var sb strings.Builder
		sb.WriteString(prologue)
		sb.WriteString(`typedef struct device {
    int id;
    int *buf;
    int irqlock;
} device_t;
`)
		fmt.Fprintf(&sb, "static int file_stat_%d;\n", f)
		for i := 0; i < funcsPerFile; i++ {
			name := fmt.Sprintf("f%d_op_%d", f, i)
			switch rng.Intn(4) {
			case 0: // allocation lifecycle
				fmt.Fprintf(&sb, `int %s(device_t *dev, int n) {
    int *tmp = kmalloc(n);
    if (!tmp)
        return -1;
    dev->buf = tmp;
    if (n > 64) {
        kfree(tmp);
        dev->buf = 0;
        return -2;
    }
    return 0;
}
`, name)
			case 1: // lock region
				fmt.Fprintf(&sb, `int %s(device_t *dev) {
    lock(&dev->irqlock);
    dev->id++;
    unlock(&dev->irqlock);
    return dev->id;
}
`, name)
			case 2: // interrupt region
				fmt.Fprintf(&sb, `int %s(device_t *dev, int v) {
    cli();
    dev->id = v;
    sti();
    return v;
}
`, name)
			default: // branchy compute
				fmt.Fprintf(&sb, `int %s(int a, int b) {
    int r = 0;
    if (a > b)
        r = a - b;
    else
        r = b - a;
    switch (r %% 3) {
    case 0: r++; break;
    case 1: r--; break;
    default: r = 0;
    }
    return r;
}
`, name)
			}
		}
		out[fmt.Sprintf("drv_%d.c", f)] = sb.String()
	}
	return out
}

// MixedTree generates a multi-file driver tree with a known mixed bug
// population across checker domains: use-after-free, double-free,
// missing unlock, unchecked allocation, leaked allocation, and
// interrupts left disabled. It returns the sources and the ground
// truth, enabling end-to-end precision/recall scoring of the whole
// checker suite (the headline experiment E11).
func MixedTree(files, funcsPerFile int, seed int64) (map[string]string, []Bug) {
	rng := rand.New(rand.NewSource(seed))
	out := map[string]string{}
	var bugs []Bug
	for f := 0; f < files; f++ {
		var sb strings.Builder
		sb.WriteString(prologue)
		sb.WriteString("int shared_lock;\n")
		line := strings.Count(prologue, "\n") + 2
		emit := func(s string) {
			sb.WriteString(s)
			line += strings.Count(s, "\n")
		}
		for i := 0; i < funcsPerFile; i++ {
			name := fmt.Sprintf("f%d_fn_%d", f, i)
			kind := rng.Intn(12)
			switch kind {
			case 0: // use-after-free bug
				bugLine := line + 2
				emit(fmt.Sprintf("int %s(int *p) {\n    kfree(p);\n    return *p;\n}\n", name))
				bugs = append(bugs, Bug{Kind: "use-after-free", Func: name, Line: bugLine})
			case 1: // double-free bug
				bugLine := line + 2
				emit(fmt.Sprintf("void %s(int *p) {\n    kfree(p);\n    kfree(p);\n}\n", name))
				bugs = append(bugs, Bug{Kind: "double-free", Func: name, Line: bugLine})
			case 2: // missing unlock bug
				bugLine := line + 1
				emit(fmt.Sprintf("void %s(void) {\n    lock(&shared_lock);\n    shared_lock = 0;\n}\n", name))
				bugs = append(bugs, Bug{Kind: "missing-unlock", Func: name, Line: bugLine})
			case 3: // unchecked allocation bug (freed, so not also a leak)
				bugLine := line + 2
				emit(fmt.Sprintf("int %s(int n) {\n    int *p = kmalloc(n);\n    int v = *p;\n    kfree(p);\n    return v;\n}\n", name))
				bugs = append(bugs, Bug{Kind: "null-deref", Func: name, Line: bugLine})
			case 4: // leak bug
				bugLine := line + 1
				emit(fmt.Sprintf("int %s(int n) {\n    int *p = kmalloc(n);\n    return n;\n}\n", name))
				bugs = append(bugs, Bug{Kind: "leak", Func: name, Line: bugLine})
			case 5: // interrupts left disabled bug
				bugLine := line + 1
				emit(fmt.Sprintf("void %s(void) {\n    cli();\n}\n", name))
				bugs = append(bugs, Bug{Kind: "interrupt", Func: name, Line: bugLine})
			case 6: // clean free lifecycle
				emit(fmt.Sprintf(`int %s(int n) {
    int *p = kmalloc(n);
    if (!p)
        return -1;
    *p = n;
    kfree(p);
    return 0;
}
`, name))
			case 7: // clean lock region
				emit(fmt.Sprintf(`void %s(int v) {
    lock(&shared_lock);
    shared_lock = v;
    unlock(&shared_lock);
}
`, name))
			case 8: // clean interrupt region
				emit(fmt.Sprintf("void %s(void) {\n    cli();\n    sti();\n}\n", name))
			case 9: // clean contradictory-branch shape (FPP stressor)
				emit(fmt.Sprintf(`int %s(int *p, int flag) {
    if (flag)
        kfree(p);
    if (!flag)
        return *p;
    return 0;
}
`, name))
			default: // plain compute
				emit(fmt.Sprintf(`int %s(int a, int b) {
    int r = a;
    if (a > b)
        r = a - b;
    else
        r = b - a;
    return r;
}
`, name))
			}
		}
		out[fmt.Sprintf("tree_%d.c", f)] = sb.String()
	}
	return out, bugs
}

// FeasPopulation generates the false-path pruning population
// (DESIGN.md §8): every function frees under one branch and uses under
// another, in four shapes. Two are false positives the §8 closure
// refutes only because it compares a class's constant with the
// orderings into the class — disjoint intervals (n > hi then n < lo)
// and an equality pinned outside an inequality's range (n >= hi then
// n == v, v < hi). The other two are seeded true positives the pruner
// must NOT cut: a plain straight-line use-after-free and a guarded one
// whose two conditions overlap (n > a then n > b, b < a). Bugs lists
// the true positives; reports on any other function are false
// positives.
func FeasPopulation(funcs int, seed int64) Program {
	rng := rand.New(rand.NewSource(seed))
	var sb strings.Builder
	sb.WriteString(prologue)
	var bugs []Bug
	line := strings.Count(prologue, "\n") + 1
	emit := func(s string) {
		sb.WriteString(s)
		line += strings.Count(s, "\n")
	}
	for i := 0; i < funcs; i++ {
		switch i % 4 {
		case 0: // interval FP: n > hi and n < lo are disjoint (lo <= hi)
			hi := 5 + rng.Intn(8)
			lo := 1 + rng.Intn(hi)
			name := fmt.Sprintf("feas_fp_interval_%d", i)
			emit(fmt.Sprintf("int %s(int *p, int n) {\n    if (n > %d)\n        kfree(p);\n    if (n < %d)\n        return *p;\n    return 0;\n}\n", name, hi, lo))
		case 1: // incoming-edge FP: n >= hi pins n's class above the n == v point
			hi := 10 + rng.Intn(8)
			v := rng.Intn(hi)
			name := fmt.Sprintf("feas_fp_edge_%d", i)
			emit(fmt.Sprintf("int %s(int *p, int n) {\n    if (n >= %d)\n        kfree(p);\n    if (n == %d)\n        return *p;\n    return 0;\n}\n", name, hi, v))
		case 2: // plain TP: straight-line use after free
			name := fmt.Sprintf("feas_tp_plain_%d", i)
			bugLine := line + 2
			emit(fmt.Sprintf("int %s(int *p) {\n    kfree(p);\n    return *p;\n}\n", name))
			bugs = append(bugs, Bug{Kind: "use-after-free", Func: name, Line: bugLine})
		default: // guarded TP: n > a implies n > b (b < a) — feasible overlap
			a := 3 + rng.Intn(8)
			b := rng.Intn(a)
			name := fmt.Sprintf("feas_tp_guard_%d", i)
			bugLine := line + 4
			emit(fmt.Sprintf("int %s(int *p, int n) {\n    if (n > %d)\n        kfree(p);\n    if (n > %d)\n        return *p;\n    return 0;\n}\n", name, a, b))
			bugs = append(bugs, Bug{Kind: "use-after-free", Func: name, Line: bugLine})
		}
	}
	return Program{Source: sb.String(), Bugs: bugs, Funcs: funcs}
}

// ValidationCorpus generates the checker-admission corpus the
// validation harness (internal/harness, DESIGN.md §14) runs candidate
// checkers against. Ground truth is exact: Bugs lists every seeded
// defect, and any report on a function outside Bugs is a false
// positive. The corpus is built to separate three failure modes of
// machine-written checkers on one fixed input:
//
//   - over-reporting: most functions are clean, and the call_fan_*
//     functions are dense with benign calls — a checker that fires on
//     ordinary calls drowns in false positives and its §9 z-statistic
//     (TPs vs total reports, p0 = 0.5) goes strongly negative;
//   - budget-blowing: the branch_fan_* functions carry many sequential
//     diamonds stuffed with expressions — a checker that tracks an
//     instance per expression multiplies block visits far past what
//     any bundled checker needs, tripping the harness's traversal
//     budgets;
//   - missed behavior is NOT gated: a checker whose domain the corpus
//     doesn't exercise simply reports nothing and is admitted as
//     harmless.
//
// Every seeded-bug and clean shape mirrors MixedTree (E11), where the
// bundled suite's precision is already pinned, so all bundled
// checkers must come out admitted.
func ValidationCorpus(scale int, seed int64) Program {
	rng := rand.New(rand.NewSource(seed))
	var sb strings.Builder
	sb.WriteString(prologue)
	sb.WriteString("int shared_lock;\nvoid ping(int x);\nvoid pong(int x);\n")
	var bugs []Bug
	line := strings.Count(prologue, "\n") + 3
	emit := func(s string) {
		sb.WriteString(s)
		line += strings.Count(s, "\n")
	}
	for g := 0; g < scale; g++ {
		// Seeded true positives, one per checker domain.
		name := fmt.Sprintf("vc%d_uaf", g)
		bugs = append(bugs, Bug{Kind: "use-after-free", Func: name, Line: line + 2})
		emit(fmt.Sprintf("int %s(int *p) {\n    kfree(p);\n    return *p;\n}\n", name))

		name = fmt.Sprintf("vc%d_df", g)
		bugs = append(bugs, Bug{Kind: "double-free", Func: name, Line: line + 2})
		emit(fmt.Sprintf("void %s(int *p) {\n    kfree(p);\n    kfree(p);\n}\n", name))

		name = fmt.Sprintf("vc%d_unlock", g)
		bugs = append(bugs, Bug{Kind: "missing-unlock", Func: name, Line: line + 1})
		emit(fmt.Sprintf("void %s(void) {\n    lock(&shared_lock);\n    shared_lock = 0;\n}\n", name))

		name = fmt.Sprintf("vc%d_null", g)
		bugs = append(bugs, Bug{Kind: "null-deref", Func: name, Line: line + 2})
		emit(fmt.Sprintf("int %s(int n) {\n    int *p = kmalloc(n);\n    int v = *p;\n    kfree(p);\n    return v;\n}\n", name))

		name = fmt.Sprintf("vc%d_leak", g)
		bugs = append(bugs, Bug{Kind: "leak", Func: name, Line: line + 1})
		emit(fmt.Sprintf("int %s(int n) {\n    int *p = kmalloc(n);\n    return n;\n}\n", name))

		name = fmt.Sprintf("vc%d_intr", g)
		bugs = append(bugs, Bug{Kind: "interrupt", Func: name, Line: line + 1})
		emit(fmt.Sprintf("void %s(void) {\n    cli();\n}\n", name))

		// Clean counterparts: correct lifecycles a sound checker must
		// stay silent on.
		emit(fmt.Sprintf(`int vc%d_clean_free(int n) {
    int *p = kmalloc(n);
    if (!p)
        return -1;
    *p = n;
    kfree(p);
    return 0;
}
`, g))
		emit(fmt.Sprintf(`void vc%d_clean_lock(int v) {
    lock(&shared_lock);
    shared_lock = v;
    unlock(&shared_lock);
}
`, g))
		emit(fmt.Sprintf("void vc%d_clean_intr(void) {\n    cli();\n    sti();\n}\n", g))
		emit(fmt.Sprintf(`int vc%d_contra(int *p, int flag) {
    if (flag)
        kfree(p);
    if (!flag)
        return *p;
    return 0;
}
`, g))

		// Over-reporter fodder: clean functions dense with benign calls.
		emit(fmt.Sprintf("int vc%d_call_fan(int n) {\n", g))
		for i := 0; i < 12; i++ {
			emit(fmt.Sprintf("    printk(\"step %d %d\", n);\n    ping(n + %d);\n    pong(n - %d);\n", g, i, i, i))
		}
		emit("    return n;\n}\n")

		// Budget fodder: sequential diamonds full of expressions. A
		// checker tracking a handful of pointers walks this in linear
		// time; one that creates an instance per expression multiplies
		// every block visit by the expression count.
		emit(fmt.Sprintf("int vc%d_branch_fan(int n) {\n    int a = n, b = n + 1, c = n + 2, d = n + 3;\n", g))
		diamonds := 10 + rng.Intn(3)
		for i := 0; i < diamonds; i++ {
			emit(fmt.Sprintf("    if (n > %d) {\n        a = a + b; b = b + c; c = c + d; d = d + a;\n        ping(a + b);\n    } else {\n        a = a - b; b = b - c; c = c - d; d = d - a;\n        pong(c + d);\n    }\n", i))
		}
		emit("    return a + b + c + d;\n}\n")
	}
	return Program{Source: sb.String(), Bugs: bugs, Funcs: scale * 12}
}

// NextVersion simulates an edit cycle on a generated tree (§8
// "History"): every file gains a header banner (shifting all line
// numbers), function bodies gain harmless churn, and one brand-new
// buggy function lands in the first file. Reports from the old
// version match by (file, function, variables, message) — never line
// numbers — so only the new bug should survive history suppression.
func NextVersion(srcs map[string]string) (map[string]string, Bug) {
	out := map[string]string{}
	first := ""
	for name := range srcs {
		if first == "" || name < first {
			first = name
		}
	}
	banner := "/* v2: refactored " + first + " build */\n/* reviewed: yes */\n\n"
	for name, src := range srcs {
		out[name] = banner + src
	}
	newBug := Bug{Kind: "use-after-free", Func: "v2_regression"}
	out[first] += `
int v2_regression(int *p) {
    kfree(p);
    return *p;
}
`
	return out, newBug
}

// CallRichTree is a hand-written multi-root tree whose bugs only show
// across calls: a free in a callee used by two roots, a lock taken and
// dropped through helpers, a panic() callee (panic-marker -> pathkill
// composition), a blocking-marked callee under cli(), plus roots no
// checker can fire on, so per-root skips are exercised too. One
// call-graph unit holds several roots — the shape MixedTree's leaf
// functions never produce.
func CallRichTree() map[string]string {
	return map[string]string{
		"lib.c": `
void kfree(void *p);
void *kmalloc(int n);
void lock(void *l);
void unlock(void *l);
void cli(void);
void sti(void);
void panic(char *msg);
void net_wait(void);

void drop(int *p) { kfree(p); }
void grab(int *l) { lock(l); }
void release(int *l) { unlock(l); }
int *make(int n) { return kmalloc(n); }
void die_if(int c) { if (c) panic("bad"); }
int add(int a, int b) { return a + b; }
`,
		"roots.c": `
void drop(int *p);
void grab(int *l);
void release(int *l);
int *make(int n);
void die_if(int c);
int add(int a, int b);
void cli(void);
void sti(void);
void net_wait(void);

int root_uaf(int *p) { drop(p); return *p; }
int root_double(int *p, int n) { drop(p); if (n) drop(p); return n; }
int root_lock(int *l, int n) { grab(l); if (n > 0) return 0; release(l); return 1; }
int root_null(int n) { int *v = make(n); return *v; }
int root_kill(int *p, int c) { drop(p); die_if(c); return *p; }
int root_block(int n) { cli(); net_wait(); sti(); return n; }
int root_intr(int n) { cli(); if (n) sti(); return n; }
int root_clean(int a, int b) { return add(a, b) + add(b, a); }
`,
	}
}
