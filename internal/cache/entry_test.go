package cache

import (
	"bytes"
	"encoding/json"
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
		Summaries: &core.SummaryData{Funcs: []core.FuncSummaryData{{
			Func: "f.c\x00main", Analyses: 1,
			Blocks: []core.BlockSummaryData{{Block: 0, Trans: []core.EdgeData{{
				From: core.TupleData{G: "start"}, To: core.TupleData{G: "start", Var: "v", Obj: "p", Val: "freed"},
			}}}},
		}}},
	}
}

// TestUnitRecordSections pins the two-section contract: DecodeUnit
// parses the replay section only, the summary section stays bytes until
// LoadSummaries, and a decoded entry re-encodes to the same record.
func TestUnitRecordSections(t *testing.T) {
	data, err := EncodeUnit(sampleEntry())
	if err != nil {
		t.Fatal(err)
	}
	e, err := DecodeUnit(data)
	if err != nil {
		t.Fatal(err)
	}
	if e.Summaries != nil || e.DeferredBytes() == 0 {
		t.Fatalf("DecodeUnit decoded the summary section: Summaries=%v deferred=%d", e.Summaries, e.DeferredBytes())
	}
	again, err := EncodeUnit(e)
	if err != nil || !bytes.Equal(again, data) {
		t.Fatalf("decode∘encode is not a fixed point (err=%v)", err)
	}
	sd, err := e.LoadSummaries()
	if err != nil || sd == nil || len(sd.Funcs) != 1 || sd.Funcs[0].Blocks[0].Trans[0].To.Val != "freed" {
		t.Fatalf("LoadSummaries = %+v, %v", sd, err)
	}
	if e.Summaries != sd || e.DeferredBytes() != 0 {
		t.Error("LoadSummaries did not settle the entry")
	}
}

// TestUnitRecordDamage: every cut inside the replay section is a decode
// error (the caller's miss); every cut inside the summary section still
// decodes, replays, and only fails the explicit load.
func TestUnitRecordDamage(t *testing.T) {
	data, _ := EncodeUnit(sampleEntry())
	whole, _ := DecodeUnit(data)
	replayEnd := len(data) - whole.DeferredBytes()
	for cut := 0; cut < len(data); cut++ {
		e, err := DecodeUnit(data[:cut])
		if cut < replayEnd {
			if err == nil {
				t.Fatalf("cut at %d of %d (replay section) decoded", cut, replayEnd)
			}
			continue
		}
		if err != nil || len(e.Roots) != 1 || len(e.Roots[0].Reports) != 1 {
			t.Fatalf("cut at %d (summary section): err=%v entry=%+v", cut, err, e)
		}
		sd, err := e.LoadSummaries()
		if cut > replayEnd && (err == nil || sd != nil) {
			t.Fatalf("cut at %d: torn summary section loaded: %+v", cut, sd)
		}
		if e.DeferredBytes() != 0 {
			t.Fatalf("cut at %d: unusable section still counted as deferred", cut)
		}
	}
}

// TestV2RecordRejected: the v2 format was bare JSON of the same fields.
// Under a v3 key (or handed to DecodeUnit by any other route) it must
// be rejected, never mis-decoded; under its own keys it is simply never
// asked for, because FormatVersion is folded into every key.
func TestV2RecordRejected(t *testing.T) {
	e := sampleEntry()
	v2, err := json.Marshal(map[string]any{
		"roots": e.Roots, "stats": e.Stats, "rules": e.Rules, "marks": e.Marks, "summaries": e.Summaries,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got, err := DecodeUnit(v2); err == nil {
		t.Fatalf("v2 record decoded: %+v", got)
	}
	if FormatVersion != "xgcc-cache-v3" {
		t.Errorf("FormatVersion = %q; a record-layout change must re-key the store", FormatVersion)
	}
}

// FuzzDecodeUnit: no byte string may panic the record decoder or the
// lazy summary load, and whatever decodes must re-encode and decode
// again to the same replay content.
func FuzzDecodeUnit(f *testing.F) {
	full, _ := EncodeUnit(sampleEntry())
	bare := sampleEntry()
	bare.Summaries = nil
	noSummaries, _ := EncodeUnit(bare)
	f.Add(full)
	f.Add(noSummaries)
	f.Add(full[:len(full)-9])
	f.Add([]byte(unitMagic))
	f.Add([]byte(unitMagic + "\xff\xff\xff\xff\xff\xff\xff\xff\xff\x01{}"))
	f.Add([]byte(`{"roots":[{"root":"f.c main"}],"stats":{}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		e, err := DecodeUnit(data)
		if err != nil {
			return
		}
		e.LoadSummaries()
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
