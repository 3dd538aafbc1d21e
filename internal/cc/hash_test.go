package cc

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/workload"
)

const hashFixture = `
typedef struct box { int *ptr; } box_t;
int global_counter;
static int file_stat;
void kfree(void *p);
int alpha(int *p, int n) {
    if (n > 0)
        kfree(p);
    return n;
}
int beta(int a) {
    return a + 1;
}
`

func parseFixture(t *testing.T, name, src string) *File {
	t.Helper()
	f, err := ParseFile(name, src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return f
}

func declsByName(f *File) map[string]Decl {
	out := map[string]Decl{}
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *FuncDecl:
			if d.Body != nil {
				out[d.Name] = d
			}
		case *VarDecl:
			out[d.Name] = d
		}
	}
	return out
}

func TestHashDeclDeterministic(t *testing.T) {
	a := declsByName(parseFixture(t, "h.c", hashFixture))
	b := declsByName(parseFixture(t, "h.c", hashFixture))
	for name := range a {
		if got, want := HashDecl(a[name]), HashDecl(b[name]); got != want {
			t.Errorf("%s: hash unstable across parses: %s vs %s", name, got, want)
		}
	}
	if HashDecl(a["alpha"]) == HashDecl(a["beta"]) {
		t.Error("distinct functions hash equal")
	}
}

func TestHashDeclSensitivity(t *testing.T) {
	base := declsByName(parseFixture(t, "h.c", hashFixture))

	// A body edit changes the hash.
	edited := strings.Replace(hashFixture, "return a + 1;", "return a + 2;", 1)
	mod := declsByName(parseFixture(t, "h.c", edited))
	if HashDecl(base["beta"]) == HashDecl(mod["beta"]) {
		t.Error("body edit did not change hash")
	}
	if HashDecl(base["alpha"]) != HashDecl(mod["alpha"]) {
		t.Error("unrelated function hash changed")
	}

	// A line shift changes the hash (positions are part of identity:
	// replayed reports embed them).
	shifted := declsByName(parseFixture(t, "h.c", "\n\n"+hashFixture))
	if HashDecl(base["alpha"]) == HashDecl(shifted["alpha"]) {
		t.Error("line shift did not change hash")
	}
}

func TestEnvHashIgnoresBodiesAndShifts(t *testing.T) {
	f1 := parseFixture(t, "h.c", hashFixture)
	// Body edits and whole-file shifts leave the environment identical.
	edited := strings.Replace(hashFixture, "return a + 1;", "return a - 1;", 1)
	f2 := parseFixture(t, "h.c", "/* banner */\n"+edited)
	if EnvHash([]*File{f1}) != EnvHash([]*File{f2}) {
		t.Error("body edit or banner changed EnvHash")
	}
	// A new global changes it.
	f3 := parseFixture(t, "h.c", hashFixture+"\nint another_global;\n")
	if EnvHash([]*File{f1}) == EnvHash([]*File{f3}) {
		t.Error("new global did not change EnvHash")
	}
	// A signature change (new parameter) changes it.
	f4 := parseFixture(t, "h.c", strings.Replace(hashFixture, "int beta(int a)", "int beta(int a, int b)", 1))
	if EnvHash([]*File{f1}) == EnvHash([]*File{f4}) {
		t.Error("signature change did not change EnvHash")
	}
	// File identity matters (static scoping is per file).
	f5 := parseFixture(t, "other.c", hashFixture)
	if EnvHash([]*File{f1}) == EnvHash([]*File{f5}) {
		t.Error("file rename did not change EnvHash")
	}
}

func TestFuncSignatureStability(t *testing.T) {
	a := parseFixture(t, "h.c", hashFixture)
	b := parseFixture(t, "h.c", "\n"+strings.Replace(hashFixture, "return n;", "return n + 7;", 1))
	var sa, sb string
	for _, fd := range a.Funcs() {
		if fd.Name == "alpha" {
			sa = string(NewHasher().signature(nil, fd))
		}
	}
	for _, fd := range b.Funcs() {
		if fd.Name == "alpha" {
			sb = string(NewHasher().signature(nil, fd))
		}
	}
	if sa == "" || sa != sb {
		t.Errorf("signature unstable: %q vs %q", sa, sb)
	}
}

// The reference hashes: HashDecl, FuncSignature, typeShape and EnvHash
// as they were written before a Hasher reused one type writer, with a
// fresh codec, map, SHA-256 and hex string per type shape. They are
// the oracle TestEnvHashMatchesReference holds the Hasher to.

func refHashDecl(d Decl) string {
	c := newWriter()
	c.decl(&d)
	return HashBytes(append(c.typeLines(nil), c.buf...))
}

func refFuncSignature(fd *FuncDecl) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "fn|%d|%s|%s|%s(", int(fd.Storage), fd.File, fd.Name, refTypeShape(fd.Result))
	for i, p := range fd.Params {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(refTypeShape(p.Type))
	}
	if fd.Variadic {
		sb.WriteString(",...")
	}
	sb.WriteByte(')')
	return sb.String()
}

func refTypeShape(t *Type) string {
	if t == nil {
		return "?"
	}
	c := newWriter()
	id := c.typeID(t)
	return HashBytes(strconv.AppendInt(append(c.typeLines(nil), '#'), int64(id), 10))[:16]
}

func refEnvHash(files []*File) string {
	h := sha256.New()
	for _, f := range files {
		fmt.Fprintf(h, "file %s\n", f.Name)
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *FuncDecl:
				fmt.Fprintf(h, "%s\n", refFuncSignature(d))
			case *VarDecl:
				init := ""
				if d.Init != nil {
					init = ExprString(d.Init)
				}
				fmt.Fprintf(h, "var|%d|%s|%s|%s\n", int(d.Storage), d.Name, refTypeShape(d.Type), init)
			case *TypedefDecl:
				fmt.Fprintf(h, "typedef|%s|%s\n", d.Name, refTypeShape(d.Type))
			case *RecordDecl:
				fmt.Fprintf(h, "record|%s\n", refTypeShape(d.Type))
			default:
				fmt.Fprintf(h, "decl %s\n", refHashDecl(d))
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestEnvHashMatchesReference: over the checked-in corpus, the
// root-order fixture, the hash fixture and a generated tree after every
// edit of workload's edit stream, EnvHash, HashDecl and every function
// signature are byte-equal to the reference's — also through one
// Hasher reused across a whole tree, environment first, as
// mc.NewUnitTree uses it.
func TestEnvHashMatchesReference(t *testing.T) {
	if got := string(NewHasher().shape(nil, nil)); got != refTypeShape(nil) {
		t.Errorf("no type's shape = %q, reference %q", got, refTypeShape(nil))
	}
	trees := map[string]map[string]string{"fixture": {"h.c": hashFixture, "emit.c": emitFixture}}
	for _, glob := range []string{"../../testdata/corpus/*.c", "../../testdata/rootorder/*.c"} {
		paths, err := filepath.Glob(glob)
		if err != nil || len(paths) == 0 {
			t.Fatalf("%s: %v (%d files)", glob, err, len(paths))
		}
		srcs := map[string]string{}
		for _, p := range paths {
			data, err := os.ReadFile(p)
			if err != nil {
				t.Fatal(err)
			}
			srcs[filepath.Base(p)] = string(data)
		}
		trees[glob] = srcs
	}
	srcs, _ := workload.MixedTree(3, 10, 2002)
	trees["mixed"] = srcs
	for i, e := range workload.RandomEdits(srcs, []string{"f0_fn_0", "f1_fn_1"}, 12, 99) {
		srcs = e.Apply(srcs)
		trees[fmt.Sprintf("edit %d: %s", i, e.Name)] = srcs
	}
	for name, srcs := range trees {
		names := make([]string, 0, len(srcs))
		for n := range srcs {
			names = append(names, n)
		}
		sort.Strings(names)
		var files []*File
		for _, n := range names {
			f, err := ParseFile(n, srcs[n])
			if err != nil {
				t.Fatalf("%s: %s: %v", name, n, err)
			}
			files = append(files, f)
		}
		if got, want := EnvHash(files), refEnvHash(files); got != want {
			t.Errorf("%s: EnvHash = %s, reference %s", name, got, want)
		}
		h := NewHasher()
		if env := h.Env(files); hex.EncodeToString(env[:]) != refEnvHash(files) {
			t.Errorf("%s: a fresh Hasher's Env differs from the reference", name)
		}
		decls := 0
		for _, f := range files {
			for _, d := range f.Decls {
				decls++
				want := refHashDecl(d)
				if got := HashDecl(d); got != want {
					t.Errorf("%s: HashDecl = %s, reference %s", name, got, want)
				}
				if sum := h.Decl(d); hex.EncodeToString(sum[:]) != want {
					t.Errorf("%s: a reused Hasher's Decl differs from the reference", name)
				}
				if fd, ok := d.(*FuncDecl); ok {
					if got, want := string(h.signature(nil, fd)), refFuncSignature(fd); got != want {
						t.Errorf("%s: signature = %q, reference %q", name, got, want)
					}
				}
			}
		}
		if decls == 0 {
			t.Fatalf("%s: no declarations; the comparison is vacuous", name)
		}
		if env := h.Env(files); hex.EncodeToString(env[:]) != refEnvHash(files) {
			t.Errorf("%s: a reused Hasher's Env differs from the reference", name)
		}
	}
}
