package cache

import (
	"errors"
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

func TestMetricsCounting(t *testing.T) {
	var m Metrics
	s := WithMetrics(NewMemStore(), &m)
	s.Get(Key("a"))
	s.Put(Key("a"), []byte("x"))
	s.Get(Key("a"))
	if m.Hits() != 1 || m.Misses() != 1 || m.Puts() != 1 || m.PutErrors() != 0 {
		t.Errorf("metrics = %d/%d/%d/%d, want 1/1/1/0", m.Hits(), m.Misses(), m.Puts(), m.PutErrors())
	}
}

// failingStore refuses every write, like a full disk.
type failingStore struct{ Store }

func (failingStore) Put(string, []byte) error { return errors.New("disk full") }

func TestMetricsCountPutErrors(t *testing.T) {
	var m Metrics
	s := WithMetrics(failingStore{NewMemStore()}, &m)
	if err := s.Put(Key("a"), []byte("x")); err == nil {
		t.Fatal("failing Put reported success")
	}
	if err := PutBatch(s, map[string][]byte{Key("b"): nil, Key("c"): nil}); err == nil {
		t.Fatal("failing PutBatch reported success")
	}
	if m.PutErrors() != 2 {
		t.Errorf("PutErrors = %d, want 2 (one per failed call)", m.PutErrors())
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
