package cc

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/workload"
)

const emitFixture = `
struct list {
    int val;
    struct list *next;
};
typedef struct list list_t;
enum state { IDLE, BUSY = 3 };
int global_count = 0;
char *names[4];
void kfree(void *p);
int sum(list_t *head) {
    int total = 0;
    list_t *cur;
    for (cur = head; cur != 0; cur = cur->next) {
        total += cur->val;
        if (total > 100)
            break;
    }
    switch (total % 3) {
    case 0: total++; break;
    default: total--;
    }
    while (total > 0)
        total -= 2;
    do { total++; } while (total < 0);
    goto out;
out:
    return total;
}
`

// roundTrip emits and re-reads a file: pass 1's output as pass 2 reads
// it.
func roundTrip(f *File) (*File, error) { return ReadFile(EmitFile(f)) }

// sameAST is reflect.DeepEqual blind to a Type's pointer memo
// (PointerTo): which pointer types the process has made so far is its
// history, not the file's.
func sameAST(x, y any) bool {
	return deepSame(reflect.ValueOf(x), reflect.ValueOf(y), map[[2]uintptr]bool{})
}

var typeType = reflect.TypeFor[Type]()

func deepSame(x, y reflect.Value, seen map[[2]uintptr]bool) bool {
	if !x.IsValid() || !y.IsValid() {
		return x.IsValid() == y.IsValid()
	}
	if x.Type() != y.Type() {
		return false
	}
	switch x.Kind() {
	case reflect.Pointer, reflect.Interface:
		if x.IsNil() || y.IsNil() {
			return x.IsNil() == y.IsNil()
		}
		if x.Kind() == reflect.Pointer {
			// A cycle (a struct type through its members) compares
			// equal the second time round, as in reflect.DeepEqual.
			k := [2]uintptr{x.Pointer(), y.Pointer()}
			if k[0] == k[1] || seen[k] {
				return true
			}
			seen[k] = true
		}
		return deepSame(x.Elem(), y.Elem(), seen)
	case reflect.Slice, reflect.Array:
		if x.Kind() == reflect.Slice && x.IsNil() != y.IsNil() || x.Len() != y.Len() {
			return false
		}
		for i := range x.Len() {
			if !deepSame(x.Index(i), y.Index(i), seen) {
				return false
			}
		}
		return true
	case reflect.Struct:
		for i := range x.NumField() {
			if x.Type() == typeType && x.Type().Field(i).Name == "ptr" {
				continue
			}
			if !deepSame(x.Field(i), y.Field(i), seen) {
				return false
			}
		}
		return true
	case reflect.String:
		return x.String() == y.String()
	case reflect.Bool:
		return x.Bool() == y.Bool()
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return x.Int() == y.Int()
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		return x.Uint() == y.Uint()
	case reflect.Float32, reflect.Float64:
		return x.Float() == y.Float()
	}
	panic("sameAST: unexpected kind " + x.Kind().String())
}

func TestEmitRoundTrip(t *testing.T) {
	f1 := mustParse(t, emitFixture)
	f2, err := roundTrip(f1)
	if err != nil {
		t.Fatalf("round trip: %v", err)
	}
	if f2.Name != f1.Name {
		t.Errorf("name: %q vs %q", f2.Name, f1.Name)
	}
	if len(f2.Decls) != len(f1.Decls) {
		t.Fatalf("decls: %d vs %d", len(f2.Decls), len(f1.Decls))
	}
	fn1 := f1.Funcs()[0]
	fn2 := f2.Funcs()[0]
	if fn1.Name != fn2.Name || len(fn1.Params) != len(fn2.Params) {
		t.Fatalf("func mismatch: %s/%d vs %s/%d", fn1.Name, len(fn1.Params), fn2.Name, len(fn2.Params))
	}
	// Statement-level fidelity: the reloaded AST is the parsed one,
	// positions included.
	if !sameAST(fn1.Body, fn2.Body) {
		t.Error("body changed after emit/reload")
	}
	// Type fidelity through the cycle (struct list refers to itself).
	p1 := fn1.Params[0].Type
	p2 := fn2.Params[0].Type
	if !SameType(p1, p2) {
		t.Errorf("param types differ: %s vs %s", p1, p2)
	}
	rec := p2.Underlying().Elem.Underlying()
	if rec.Kind != TypeStruct || len(rec.Fields) != 2 {
		t.Fatalf("reloaded record = %s", rec)
	}
	if rec.Fields[1].Type.Underlying().Elem.Underlying() != rec {
		t.Error("recursive type identity lost in reload")
	}
}

func TestEmitPositionsSurvive(t *testing.T) {
	f1 := mustParse(t, "int f(void) {\n    return 7;\n}\n")
	f2, err := roundTrip(f1)
	if err != nil {
		t.Fatal(err)
	}
	ret := f2.Funcs()[0].Body.List[0].(*ReturnStmt)
	if ret.P.Line != 2 {
		t.Errorf("return line = %d, want 2", ret.P.Line)
	}
	if ret.P.File != "test.c" {
		t.Errorf("return file = %q", ret.P.File)
	}
}

// readFileRejects holds inputs ReadFile must reject with a structured
// error, each with a fragment of that error: a field that is not a
// number, an extra trailing field and a truncated node.
var readFileRejects = []struct{ src, want string }{
	{`(xgcc-ast 1 "f.c" (types) (var "x" notanumber 0 1 1))`, "want a number"},
	{`(xgcc-ast 1 "f.c" (types) (var "x" -1 0 1 1 (id "y" 1 1) (extra)))`, "trailing field"},
	{`(xgcc-ast 1 "f.c" (types) (fn "f" -1 0 0 "f.c" 1 1 (params) (blk 1 1 (if 3 3))))`, "missing field"},
}

func TestReadFileErrors(t *testing.T) {
	bad := []string{
		"",
		"(",
		"(wrong 1)",
		"(xgcc-ast 1 \"f.c\" (var))",
		"garbage",
		`(xgcc-ast 1 "f.c" (fn))`,
	}
	for _, src := range bad {
		if _, err := ReadFile([]byte(src)); err == nil {
			t.Errorf("%q: expected error", src)
		}
	}
	for _, tc := range readFileRejects {
		f, err := ReadFile([]byte(tc.src))
		if err == nil {
			t.Errorf("%s: read %d decls, want an error", tc.src, len(f.Decls))
		} else if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q, want one with %q", tc.src, err, tc.want)
		}
	}
}

// FuzzReadFile holds ReadFile to two properties: it never panics, and
// whatever it decodes emits a form that reads back and re-emits to the
// same bytes.
func FuzzReadFile(f *testing.F) {
	parsed, err := ParseFile("fix.c", emitFixture)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(EmitFile(parsed))
	for _, tc := range readFileRejects {
		f.Add([]byte(tc.src))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		file, err := ReadFile(data)
		if err != nil {
			return
		}
		once := EmitFile(file)
		again, err := ReadFile(once)
		if err != nil {
			t.Fatalf("re-reading the emitted form: %v\n%s", err, once)
		}
		if twice := EmitFile(again); string(twice) != string(once) {
			t.Fatalf("re-emit differs:\n%s\n---\n%s", once, twice)
		}
	})
}

func TestEmitSizeRatio(t *testing.T) {
	// E8: the paper reports emitted ASTs "typically four or five times
	// larger than the text representation". Ours should be in the same
	// ballpark — specifically, strictly larger and within 1x-12x.
	src := emitFixture
	f := mustParse(t, src)
	emitted := EmitFile(f)
	ratio := float64(len(emitted)) / float64(len(src))
	if ratio < 1.0 || ratio > 12.0 {
		t.Errorf("emit ratio = %.2f (emitted %d bytes from %d source bytes)",
			ratio, len(emitted), len(src))
	}
	t.Logf("E8 emit ratio: %.2fx (paper: 4-5x)", ratio)
}

func TestEmitStringEscapes(t *testing.T) {
	f1 := mustParse(t, `char *s = "a\"b\\c"; char c = '\n';`)
	f2, err := roundTrip(f1)
	if err != nil {
		t.Fatal(err)
	}
	v1 := f1.Decls[0].(*VarDecl).Init.(*StringLit)
	v2 := f2.Decls[0].(*VarDecl).Init.(*StringLit)
	if v1.Text != v2.Text {
		t.Errorf("string text: %q vs %q", v1.Text, v2.Text)
	}
}

func TestEmitIsText(t *testing.T) {
	f := mustParse(t, "int x;")
	out := string(EmitFile(f))
	if !strings.HasPrefix(out, "(xgcc-ast 1") {
		t.Errorf("unexpected header: %.40s", out)
	}
}

// emitFormGolden is the SHA-256 of emitFormDigest's input. It pins
// the emitted pass-1 form byte for byte: every cache key is a hash of
// it (HashDecl, FuncSignature, EnvHash), so a codec change that moves
// one byte re-keys every stored unit. Re-taken when every declaration
// of one integer keyword set came to share the package's Type: the
// form numbers types by pointer, so a declaration that names int twice
// now lists one type. Re-taken again (1802f4d8… → 1f705898…) when
// PointerTo came to make one pointer type per element type, for the
// same reason: two int * of one declaration are one type. Re-taken
// (1f705898… → c1e1a485…) when testdata/rootorder gained hothelpers.c,
// a new input, not a new form: without that file the input hashes to
// 1f705898… still. Since then the input files are named
// (emitFormFiles), so a fixture added to those directories for another
// test leaves the golden where it is.
const emitFormGolden = "c1e1a485b02045aeb088e4a5d4962a193b0404abfe9d10fbd74aff8a707b5ef2"

// emitFormFiles are the checked-in files under testdata that
// emitFormGolden hashes, the ones there were when it was last taken.
var emitFormFiles = []string{
	"corpus/ringbuf.c", "corpus/slab.c", "corpus/strutil.c", "corpus/sysctl.c",
	"rootorder/finding4.c", "rootorder/hothelpers.c",
}

// TestEmitFormIsStable hashes EmitFile, per-declaration HashDecl,
// FuncSignature and EnvHash over emitFormFiles, emitFixture and a
// generated tree, file by file in name order.
func TestEmitFormIsStable(t *testing.T) {
	srcs, _ := workload.MixedTree(8, 25, 2002)
	srcs["emit.c"] = emitFixture
	for _, name := range emitFormFiles {
		data, err := os.ReadFile(filepath.Join("../../testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		srcs[name] = string(data)
	}
	names := make([]string, 0, len(srcs))
	for name := range srcs {
		names = append(names, name)
	}
	sort.Strings(names)
	h := sha256.New()
	var files []*File
	for _, name := range names {
		f, err := ParseFile(name, srcs[name])
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		files = append(files, f)
		h.Write(EmitFile(f))
		for _, d := range f.Decls {
			h.Write([]byte(HashDecl(d)))
			if fd, ok := d.(*FuncDecl); ok {
				h.Write(NewHasher().signature(nil, fd))
			}
		}
	}
	h.Write([]byte(EnvHash(files)))
	if got := hex.EncodeToString(h.Sum(nil)); got != emitFormGolden {
		t.Errorf("emitted form moved: digest %s, want %s", got, emitFormGolden)
	}
}
