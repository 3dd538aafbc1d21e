package cache

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/report"
)

func TestKeyDistinguishesBoundaries(t *testing.T) {
	if Key("ab", "c") == Key("a", "bc") {
		t.Error("length prefixing failed: boundary alias")
	}
	if Key("x") != Key("x") {
		t.Error("key not deterministic")
	}
	if Key("x") == Key("y") {
		t.Error("distinct parts collide")
	}
}

// refKey is Key as it was written before it laid its parts out in one
// buffer: a hash.Hash fed each part's length and a copy of its bytes.
// It is the oracle TestKeyMatchesReference holds Key to.
func refKey(parts ...string) string {
	h := sha256.New()
	writePart := func(p string) {
		var lenbuf [8]byte
		n := len(p)
		for i := 0; i < 8; i++ {
			lenbuf[i] = byte(n >> (8 * i))
		}
		h.Write(lenbuf[:])
		h.Write([]byte(p))
	}
	writePart(FormatVersion)
	for _, p := range parts {
		writePart(p)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestKeyMatchesReference: Key derives the reference's key for no
// parts, empty parts, parts either side of its stack buffer's size, a
// very long part and many parts; and it allocates only the key string
// while the parts fit that buffer.
func TestKeyMatchesReference(t *testing.T) {
	long := strings.Repeat("0123456789abcdef", 1<<16)
	cases := [][]string{
		nil,
		{""},
		{"", "", ""},
		{"unit", "x"},
		{"ab", "c"},
		{"a", "bc"},
		{strings.Repeat("k", 1024-16-len(FormatVersion))},   // exactly fills the buffer
		{strings.Repeat("k", 1024-16-len(FormatVersion)+1)}, // one byte past it
		{long},
		{"unit", long, "", long[:100]},
	}
	many := make([]string, 300)
	for i := range many {
		many[i] = strings.Repeat("m", i%7)
	}
	cases = append(cases, many)
	for i, parts := range cases {
		if got, want := Key(parts...), refKey(parts...); got != want {
			t.Errorf("case %d: Key = %s, reference %s", i, got, want)
		}
	}
	parts := []string{"unit", strings.Repeat("f", 64), "opts|111111|0,0,0,0", strings.Repeat("e", 64)}
	if n := testing.AllocsPerRun(100, func() { Key(parts...) }); n != 1 {
		t.Errorf("Key allocates %v objects, want 1 (the key)", n)
	}
}

func storeImpls(t *testing.T) map[string]Store {
	t.Helper()
	ds, err := NewDirStore(filepath.Join(t.TempDir(), "cache"))
	if err != nil {
		t.Fatal(err)
	}
	return map[string]Store{"mem": NewMemStore(), "dir": ds}
}

func TestStoreRoundTrip(t *testing.T) {
	for name, s := range storeImpls(t) {
		t.Run(name, func(t *testing.T) {
			if _, ok := s.Get(Key("missing")); ok {
				t.Error("hit on empty store")
			}
			key := Key("blob")
			if err := s.Put(key, []byte("payload")); err != nil {
				t.Fatal(err)
			}
			got, ok := s.Get(key)
			if !ok || string(got) != "payload" {
				t.Errorf("get = %q, %v", got, ok)
			}
			// Overwrite is idempotent.
			if err := s.Put(key, []byte("payload")); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestDirStoreAtomicNoTempLeftovers: the store's directory holds the
// log and nothing else, however many puts and handles went through it.
func TestDirStoreAtomicNoTempLeftovers(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "c")
	for i := 0; i < 3; i++ {
		ds, err := NewDirStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		if err := PutBatch(ds, map[string][]byte{Key("k", strings.Repeat("k", i)): []byte("v"), Key("kept"): []byte("kept")}); err != nil {
			t.Fatal(err)
		}
		if got, ok := ds.Get(Key("kept")); !ok || string(got) != "kept" {
			t.Errorf("handle %d: record lost: %q %v", i, got, ok)
		}
		ds.Close()
	}
	ents, err := os.ReadDir(dir)
	if err != nil || len(ents) != 1 || ents[0].Name() != "store.log" {
		t.Errorf("store directory holds %v (%v), want only store.log", ents, err)
	}
}

func TestUnitEntryRoundTrip(t *testing.T) {
	e := &UnitEntry{
		Roots: []RootReports{{
			Root: "f.c\x00main",
			Reports: []*report.Report{{
				Checker: "free", Rule: "kfree", Msg: "use after free",
				Func: "main", Vars: []string{"p"}, Conditionals: 2,
				Trace: []string{"step one"},
			}},
		}},
		Stats: core.Stats{Blocks: 7, Analyses: map[string]int{"main": 1}},
		Rules: map[string]*core.RuleCount{"kfree": {Examples: 3, Violations: 1}},
		Marks: []core.MarkEvent{{Name: "panic", Key: "pathkill"}},
	}
	data, err := EncodeUnit(e)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeUnit(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Roots) != 1 || back.Roots[0].Root != e.Roots[0].Root {
		t.Errorf("roots differ: %+v", back.Roots)
	}
	r := back.Roots[0].Reports[0]
	if r.Msg != "use after free" || r.Conditionals != 2 || len(r.Trace) != 1 {
		t.Errorf("report fields lost: %+v", r)
	}
	if back.Stats.Blocks != 7 || back.Stats.Analyses["main"] != 1 {
		t.Errorf("stats lost: %+v", back.Stats)
	}
	if back.Rules["kfree"].Examples != 3 {
		t.Errorf("rules lost: %+v", back.Rules)
	}
	if len(back.Marks) != 1 || back.Marks[0].Name != "panic" {
		t.Errorf("marks lost: %+v", back.Marks)
	}
}
