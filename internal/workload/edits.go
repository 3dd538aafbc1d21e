package workload

// Deterministic edit operations over generated source trees, used by
// the incremental-analysis correctness property test (cold run ==
// warm run after edits). Each edit is a pure function from tree to
// tree, so the same seed always yields the same edit sequence.

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
)

// Edit is one deterministic source-tree edit.
type Edit struct {
	// Name describes the edit for logs ("tweak-body tree_0.c").
	Name string
	// Apply returns a new tree; the input is not modified.
	Apply func(srcs map[string]string) map[string]string
}

func copyTree(srcs map[string]string) map[string]string {
	out := make(map[string]string, len(srcs))
	for k, v := range srcs {
		out[k] = v
	}
	return out
}

// TweakBody edits one existing function body in the file: a harmless
// statement is inserted before the file's last top-level return. This
// is the smallest possible edit — one function's content changes,
// every other function keeps its exact position — so an incremental
// run should re-analyze only that function's call-graph unit.
func TweakBody(file string) Edit {
	return Edit{
		Name: "tweak-body " + file,
		Apply: func(srcs map[string]string) map[string]string {
			out := copyTree(srcs)
			src := out[file]
			i := strings.LastIndex(src, "    return")
			if i < 0 {
				return out
			}
			out[file] = src[:i] + "    if (0) { }\n" + src[i:]
			return out
		},
	}
}

// PrependBanner prepends a comment header, shifting every line in the
// file. Positions are part of function identity (reports embed them),
// so this invalidates exactly the file's own functions — the
// declaration environment is position-free and unaffected.
func PrependBanner(file string) Edit {
	return Edit{
		Name: "prepend-banner " + file,
		Apply: func(srcs map[string]string) map[string]string {
			out := copyTree(srcs)
			out[file] = "/* edited: build header */\n/* reviewed */\n" + out[file]
			return out
		},
	}
}

// AppendCleanFunc appends a new bug-free function. Adding a
// declaration changes the program environment, exercising the
// coarsest invalidation path.
func AppendCleanFunc(file string, n int) Edit {
	return Edit{
		Name: fmt.Sprintf("append-clean %s #%d", file, n),
		Apply: func(srcs map[string]string) map[string]string {
			out := copyTree(srcs)
			out[file] += fmt.Sprintf(`int edit_clean_%d(int n) {
    int *p = kmalloc(n);
    if (!p)
        return -1;
    *p = n;
    kfree(p);
    return 0;
}
`, n)
			return out
		},
	}
}

// AppendBuggyFunc appends a new use-after-free function, so warm runs
// must surface brand-new reports identically to a cold run.
func AppendBuggyFunc(file string, n int) Edit {
	return Edit{
		Name: fmt.Sprintf("append-buggy %s #%d", file, n),
		Apply: func(srcs map[string]string) map[string]string {
			out := copyTree(srcs)
			out[file] += fmt.Sprintf("int edit_bug_%d(int *p) {\n    kfree(p);\n    return *p;\n}\n", n)
			return out
		},
	}
}

// AppendCaller appends a function calling target, changing the call
// graph: target stops being a root and its unit gains a member — the
// unit-membership invalidation path.
func AppendCaller(file string, n int, target string) Edit {
	return Edit{
		Name: fmt.Sprintf("append-caller %s #%d -> %s", file, n, target),
		Apply: func(srcs map[string]string) map[string]string {
			out := copyTree(srcs)
			out[file] += fmt.Sprintf("void edit_caller_%d(int *p) {\n    %s(p);\n}\n", n, target)
			return out
		},
	}
}

// RandomEdits derives n deterministic edits for the tree: a seeded
// mix of body tweaks, banner prepends, new clean/buggy functions, and
// new callers of existing functions. targets lists function names
// safe to call with one pointer argument; pass nil to skip caller
// edits.
func RandomEdits(srcs map[string]string, targets []string, n int, seed int64) []Edit {
	rng := rand.New(rand.NewSource(seed))
	files := make([]string, 0, len(srcs))
	for f := range srcs {
		files = append(files, f)
	}
	sort.Strings(files)
	var out []Edit
	for i := 0; i < n; i++ {
		file := files[rng.Intn(len(files))]
		kinds := 4
		if len(targets) > 0 {
			kinds = 5
		}
		switch rng.Intn(kinds) {
		case 0:
			out = append(out, TweakBody(file))
		case 1:
			out = append(out, PrependBanner(file))
		case 2:
			out = append(out, AppendCleanFunc(file, i))
		case 3:
			out = append(out, AppendBuggyFunc(file, i))
		case 4:
			out = append(out, AppendCaller(file, i, targets[rng.Intn(len(targets))]))
		}
	}
	return out
}
