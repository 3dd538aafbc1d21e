package cache

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"

	"repro/internal/core"
	"repro/internal/report"
)

func sampleEntry() *UnitEntry {
	return &UnitEntry{
		Roots: []RootReports{{
			Root:    "f.c\x00main",
			Reports: []*report.Report{{Checker: "free", Rule: "kfree", Msg: "use after free", Func: "main"}},
		}},
		Stats: core.Stats{Blocks: 7, Analyses: map[string]int{"main": 1}},
		Rules: map[string]*core.RuleCount{"kfree": {Examples: 3, Violations: 1}},
		Marks: []core.MarkEvent{{Name: "panic", Key: "pathkill"}},
	}
}

// v3Record is a real record the previous format wrote (the {helper,
// entry} unit of mc's TestStoreKeysAreStable under "free"): magic
// "xgu3", a length-prefixed replay section, then a summary section.
func v3Record(t testing.TB) []byte {
	t.Helper()
	data, err := os.ReadFile("testdata/unit-v3.bin")
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestUnitRecordSections pins the record's shape: magic, then one
// section, the entry as JSON. A decoded entry re-encodes to the same
// record, and nothing in a record ever sets Summaries.
func TestUnitRecordSections(t *testing.T) {
	withSummaries := sampleEntry()
	withSummaries.Summaries = &core.SummaryData{Funcs: []core.FuncSummaryData{{Func: "f.c\x00main", Analyses: 1}}}
	data, err := EncodeUnit(withSummaries)
	if err != nil {
		t.Fatal(err)
	}
	if plain, _ := EncodeUnit(sampleEntry()); !bytes.Equal(data, plain) {
		t.Fatal("a hand-set Summaries reached the record")
	}
	var asJSON map[string]json.RawMessage
	if !bytes.HasPrefix(data, []byte(unitMagic)) || json.Unmarshal(data[len(unitMagic):], &asJSON) != nil {
		t.Fatalf("record is not magic + one JSON section: %.40q", data)
	}
	e, err := DecodeUnit(data)
	if err != nil {
		t.Fatal(err)
	}
	if e.Summaries != nil || len(e.Roots) != 1 || e.Rules["kfree"].Examples != 3 || e.Marks[0].Key != "pathkill" {
		t.Fatalf("DecodeUnit = %+v", e)
	}
	again, err := EncodeUnit(e)
	if err != nil || !bytes.Equal(again, data) {
		t.Fatalf("decode∘encode is not a fixed point (err=%v)", err)
	}
}

// TestUnitRecordDamage: every cut of a record is a decode error, the
// caller's miss. There is no part of a record a reader can do without.
func TestUnitRecordDamage(t *testing.T) {
	data, _ := EncodeUnit(sampleEntry())
	for cut := 0; cut < len(data); cut++ {
		if e, err := DecodeUnit(data[:cut]); err == nil {
			t.Fatalf("cut at %d of %d decoded: %+v", cut, len(data), e)
		}
	}
}

// TestOldRecordsRejected: the v2 format was bare JSON of the same
// fields, v3 put a summary section behind the replay one. Under a v4
// key (or handed to DecodeUnit by any other route) either must be
// rejected, never mis-decoded — mc's TestDamagedRecords runs both
// through a warm run: a miss, re-run live, overwritten. Under their own
// keys they are simply never asked for, because FormatVersion is folded
// into every key.
func TestOldRecordsRejected(t *testing.T) {
	e := sampleEntry()
	v2, err := json.Marshal(map[string]any{
		"roots": e.Roots, "stats": e.Stats, "rules": e.Rules, "marks": e.Marks, "summaries": nil,
	})
	if err != nil {
		t.Fatal(err)
	}
	for name, data := range map[string][]byte{"v2": v2, "v3": v3Record(t)} {
		if got, err := DecodeUnit(data); err == nil {
			t.Errorf("%s record decoded: %+v", name, got)
		}
	}
	if FormatVersion != "xgcc-cache-v4" {
		t.Errorf("FormatVersion = %q; a record-layout change must re-key the store", FormatVersion)
	}
}

// FuzzDecodeUnit: no byte string may panic the record decoder, and
// whatever decodes must re-encode and decode again to the same replay
// content.
func FuzzDecodeUnit(f *testing.F) {
	full, _ := EncodeUnit(sampleEntry())
	f.Add(full)
	f.Add(full[:len(full)-9])
	f.Add([]byte(unitMagic))
	f.Add([]byte(unitMagic + "{}"))
	f.Add(v3Record(f))
	f.Add([]byte(`{"roots":[{"root":"f.c main"}],"stats":{}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		e, err := DecodeUnit(data)
		if err != nil {
			return
		}
		out, err := EncodeUnit(e)
		if err != nil {
			t.Fatalf("decoded entry does not re-encode: %v", err)
		}
		back, err := DecodeUnit(out)
		if err != nil || len(back.Roots) != len(e.Roots) {
			t.Fatalf("re-encoded entry does not decode: %v", err)
		}
	})
}
