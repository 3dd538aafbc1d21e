package cc

import (
	"fmt"
	"sort"
	"strings"
	"testing"
)

// SkimFiles returns name-sorted slots and, on failure, the error a
// ParseFile of each file in name order meets first — at any worker
// count, so a parallel pass 1 reports what a sequential one would.
func TestSkimFiles(t *testing.T) {
	const good, bad = "int f(int a) { return a; }\n", "int f( {\n"
	const badBody = "int g(void) { return 1 }\n"
	cases := []struct {
		name string
		srcs map[string]string
		want []string // file names in slot order
	}{
		{name: "empty set", srcs: map[string]string{}},
		{name: "one file", srcs: map[string]string{"a.c": good}, want: []string{"a.c"}},
		{name: "sorted slots", srcs: map[string]string{"c.c": good, "a.c": good, "b/x.c": good, "b.c": good},
			want: []string{"a.c", "b.c", "b/x.c", "c.c"}},
		{name: "first sorted failure wins", srcs: map[string]string{"z.c": bad, "m.c": good, "k.c": bad, "a.c": good}},
		{name: "a body ahead of a declaration", srcs: map[string]string{"b.c": bad, "a.c": badBody}},
	}
	for _, tc := range cases {
		// The oracle: each file parsed whole, in name order.
		names := make([]string, 0, len(tc.srcs))
		for n := range tc.srcs {
			names = append(names, n)
		}
		sort.Strings(names)
		var wantErr error
		for _, n := range names {
			if _, err := ParseFile(n, tc.srcs[n]); err != nil {
				wantErr = fmt.Errorf("parse %s: %w", n, err)
				break
			}
		}
		for _, workers := range []int{1, 8} {
			files, err := SkimFiles(tc.srcs, workers)
			if wantErr != nil {
				if err == nil || err.Error() != wantErr.Error() || files != nil {
					t.Errorf("%s, %d workers: files %v, err %v; want no files and %v", tc.name, workers, files, err, wantErr)
				}
				continue
			}
			if err != nil {
				t.Errorf("%s, %d workers: %v", tc.name, workers, err)
				continue
			}
			var got []string
			for _, f := range files {
				got = append(got, f.Name)
			}
			if strings.Join(got, " ") != strings.Join(tc.want, " ") {
				t.Errorf("%s, %d workers: slots %v, want %v", tc.name, workers, got, tc.want)
			}
		}
	}
}

// A file's parser lets its tokens and scope stack go once the last of
// its skimmed bodies is parsed, and not before; a body pass 1 parsed in
// place (b's local typedef is outside the skim's grammar) is not one
// the parser waits for.
func TestParsedFileDropsTokens(t *testing.T) {
	const src = "typedef int U; int g(int); int a(void) { return g(1); }\n" +
		"int b(void) { typedef int T; T x = g(2); return x; }\n" +
		"int c(void) { U y = g(3); return y; }\n"
	f, err := SkimFile(new(Arena), "t.c", src)
	if err != nil {
		t.Fatal(err)
	}
	fns := f.Funcs()
	a, b, c := fns[0], fns[1], fns[2]
	p := a.Skim.src
	if a.Body != nil || b.Body == nil || c.Body != nil || b.Skim.src != p || c.Skim.src != p {
		t.Fatalf("pass 1 parsed a %v, b %v, c %v in place; want b alone, every span on one parser", a.Body != nil, b.Body != nil, c.Body != nil)
	}
	held := func() bool { return p.toks != nil || p.names != nil }
	for _, step := range []struct {
		fd   *FuncDecl
		held bool
	}{{b, true}, {c, true}, {a, false}} {
		if err := ParseBody(step.fd, new(Arena)); err != nil {
			t.Fatal(err)
		}
		if held() != step.held {
			t.Errorf("after %s: parser holds its tokens %v, want %v", step.fd.Name, held(), step.held)
		}
	}
	if a.Body == nil || c.Body == nil {
		t.Error("a skimmed body was not parsed")
	}
}
