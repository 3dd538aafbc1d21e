package cache

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"os"
	"reflect"
	"testing"
	"unsafe"

	"repro/internal/cc"
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

// oldRecord reads a real record an earlier format wrote (the {helper,
// entry} unit of mc's TestStoreKeysAreStable under "free"): unit-v3.bin
// is magic "xgu3", a length-prefixed replay section, then a summary
// section; unit-v4.bin is magic "xgu4" and the entry as JSON.
func oldRecord(t testing.TB, name string) []byte {
	t.Helper()
	data, err := os.ReadFile("testdata/" + name)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// seal frames a hand-written body as a record: magic, body, CRC-32C.
func seal(body []byte) []byte {
	rec := append([]byte(unitMagic), body...)
	return binary.LittleEndian.AppendUint32(rec, crc32.Checksum(body, castagnoli))
}

// TestUnitRecordSections pins the record's shape: magic, a body, then
// the CRC-32C of the body. A decoded entry re-encodes to the same
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
	end := len(data) - crc32.Size
	if !bytes.HasPrefix(data, []byte(unitMagic)) || end < len(unitMagic) ||
		binary.LittleEndian.Uint32(data[end:]) != crc32.Checksum(data[len(unitMagic):end], castagnoli) {
		t.Fatalf("record is not magic + body + CRC-32C of the body: %q", data)
	}
	if json.Valid(data[len(unitMagic):end]) {
		t.Fatalf("record body is JSON: %q", data)
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

// TestRecordCoversEveryField: every field of a report, of the stats and
// of a rule count survives a round trip, set to values no two fields
// share. A field added to one of them fails here until the record walk
// lists it.
func TestRecordCoversEveryField(t *testing.T) {
	next := 0
	fill := func(v reflect.Value) {
		for i := 0; i < v.NumField(); i++ {
			f := v.Field(i)
			next++
			switch f.Kind() {
			case reflect.Int, reflect.Int64:
				f.SetInt(int64(next * 1000))
			case reflect.Bool:
				f.SetBool(true)
			case reflect.String:
				f.SetString(string(rune('a'+next)) + "-field")
			case reflect.Slice:
				f.Set(reflect.ValueOf([]string{"one", "two"}))
			case reflect.Map:
				f.Set(reflect.ValueOf(map[string]int{"g": 2, "f": 1}))
			case reflect.Struct:
				if f.Type() != reflect.TypeOf(cc.Pos{}) {
					t.Fatalf("field %s: no filler for %s", v.Type().Field(i).Name, f.Type())
				}
				f.Set(reflect.ValueOf(cc.Pos{File: "p.c", Line: next, Col: -next}))
			default:
				t.Fatalf("field %s: no filler for %s", v.Type().Field(i).Name, f.Type())
			}
		}
	}
	r, rc := &report.Report{}, &core.RuleCount{}
	e := &UnitEntry{Roots: []RootReports{{Root: "f.c\x00f", Reports: []*report.Report{r}}},
		Rules: map[string]*core.RuleCount{"rule": rc}, Marks: []core.MarkEvent{{Name: "n", Key: "k"}}}
	fill(reflect.ValueOf(r).Elem())
	fill(reflect.ValueOf(&e.Stats).Elem())
	fill(reflect.ValueOf(rc).Elem())
	data, err := EncodeUnit(e)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeUnit(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, e) {
		t.Errorf("round trip lost a field:\n got %+v\nwant %+v", back, e)
	}
}

// TestUnitRecordDamage: every cut of a record and every single-byte
// change is a decode error, the caller's miss. There is no part of a
// record a reader can do without, and the trailer catches what the
// body's structure would not.
func TestUnitRecordDamage(t *testing.T) {
	data, _ := EncodeUnit(sampleEntry())
	for cut := 0; cut < len(data); cut++ {
		if e, err := DecodeUnit(data[:cut]); err == nil {
			t.Fatalf("cut at %d of %d decoded: %+v", cut, len(data), e)
		}
	}
	damaged := make([]byte, len(data))
	for i := range data {
		for b := 0; b < 256; b++ {
			if byte(b) == data[i] {
				continue
			}
			copy(damaged, data)
			damaged[i] = byte(b)
			if e, err := DecodeUnit(damaged); err == nil {
				t.Fatalf("byte %d of %d set to %#x decoded: %+v", i, len(data), b, e)
			}
		}
	}
}

// TestRecordHasOneForm: a body whose checksum holds but which says its
// content another way than EncodeUnit would — a string introduced twice,
// map keys out of order, a varint longer than it needs to be, a slab
// count that does not match — is refused, so whatever decodes
// re-encodes to its own bytes.
func TestRecordHasOneForm(t *testing.T) {
	// The sample as EncodeUnit writes it, then one change at a time.
	canonical := []byte{
		1, 0, // one report, no list strings
		1,                                          // one root
		0, 8, 'f', '.', 'c', 0, 'm', 'a', 'i', 'n', // its FuncID, string 0
		1,                        // one report
		0, 4, 'f', 'r', 'e', 'e', // Checker, string 1
		0, 5, 'k', 'f', 'r', 'e', 'e', // Rule, string 2
		0, 14, 'u', 's', 'e', ' ', 'a', 'f', 't', 'e', 'r', ' ', 'f', 'r', 'e', 'e', // Msg, string 3
		0, 0, 0, 0, // Pos: File "" (string 4), line, col
		5, 0, 0, // Start: File "", line, col
		0, 4, 'm', 'a', 'i', 'n', // Func, string 5
		0,          // no Vars
		0, 0, 0, 0, // Conditionals, SynonymDepth, Interprocedural, CallChain
		5,                                      // Class ""
		0,                                      // no Trace
		0, 14, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, // Stats counters: Blocks 7
		1, 6, 2, // Analyses: main (string 5) 1
		1, 3, 6, 2, // Rules: kfree (string 2) 3 examples, 1 violation
		1, 0, 5, 'p', 'a', 'n', 'i', 'c', 0, 8, 'p', 'a', 't', 'h', 'k', 'i', 'l', 'l', // Marks
	}
	if want, _ := EncodeUnit(sampleEntry()); !bytes.Equal(seal(canonical), want) {
		t.Fatalf("the hand-written body is not the sample's:\n got %q\nwant %q", seal(canonical), want)
	}
	if _, err := DecodeUnit(seal(canonical)); err != nil {
		t.Fatal(err)
	}
	edit := func(i int, del int, ins ...byte) []byte {
		out := append([]byte(nil), canonical[:i]...)
		out = append(out, ins...)
		return append(out, canonical[i+del:]...)
	}
	funcAt := bytes.Index(canonical, []byte{0, 4, 'm', 'a', 'i', 'n'})
	for name, body := range map[string][]byte{
		"string introduced twice": edit(funcAt, 6, 0, 14, 'u', 's', 'e', ' ', 'a', 'f', 't', 'e', 'r', ' ', 'f', 'r', 'e', 'e'),
		"undefined string":        edit(funcAt, 6, 9),
		"long varint":             edit(0, 1, 0x81, 0x00),
		"too many reports":        edit(0, 1, 2),
		"too few reports":         edit(0, 1, 0),
		"unused list slab":        edit(1, 1, 1),
		"flag out of range":       edit(funcAt+9, 1, 2),
		"trailing byte":           append(append([]byte(nil), canonical...), 0),
		"analyses out of order": func() []byte {
			i := bytes.Index(canonical, []byte{1, 6, 2, 1, 3})
			return edit(i, 3, 2, 6, 2, 0, 1, 'a', 0)
		}(),
	} {
		e, err := DecodeUnit(seal(body))
		if err == nil {
			t.Errorf("%s: decoded %+v", name, e)
		}
		t.Logf("%s: %v", name, err)
	}
}

// TestOldRecordsRejected: the v2 format was bare JSON of the same
// fields, v3 put a summary section behind the replay one, v4 was magic
// and JSON. Under a v5 key (or handed to DecodeUnit by any other route)
// each must be rejected, never mis-decoded — mc's TestDamagedRecords
// runs them through a warm run: a miss, re-run live, overwritten. Under
// their own keys they are simply never asked for, because FormatVersion
// is folded into every key.
func TestOldRecordsRejected(t *testing.T) {
	e := sampleEntry()
	v2, err := json.Marshal(map[string]any{
		"roots": e.Roots, "stats": e.Stats, "rules": e.Rules, "marks": e.Marks, "summaries": nil,
	})
	if err != nil {
		t.Fatal(err)
	}
	for name, data := range map[string][]byte{"v2": v2, "v3": oldRecord(t, "unit-v3.bin"), "v4": oldRecord(t, "unit-v4.bin")} {
		if got, err := DecodeUnit(data); err == nil {
			t.Errorf("%s record decoded: %+v", name, got)
		}
	}
	if FormatVersion != "xgcc-cache-v5" {
		t.Errorf("FormatVersion = %q; a record-layout change must re-key the store", FormatVersion)
	}
}

// TestDecoderSharesStrings: one decoder hands every record it reads the
// same string for the same bytes, and two records may each introduce a
// string the other did.
func TestDecoderSharesStrings(t *testing.T) {
	data, _ := EncodeUnit(sampleEntry())
	var dec UnitDecoder
	a, err := dec.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	b, err := dec.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	ra, rb := a.Roots[0].Reports[0], b.Roots[0].Reports[0]
	if ra == rb {
		t.Fatal("two decodes share a report")
	}
	if unsafe.StringData(ra.Msg) != unsafe.StringData(rb.Msg) || unsafe.StringData(a.Roots[0].Root) != unsafe.StringData(b.Roots[0].Root) {
		t.Error("two decodes of one record allocated a string twice")
	}
}

// FuzzDecodeUnit: no byte string may panic the record decoder, and
// whatever decodes re-encodes to exactly the bytes it was decoded from:
// a record has one form. Each input is tried as a record and, sealed
// with its checksum, as a body, so the fuzzer reaches the body's walk
// without forging a CRC.
func FuzzDecodeUnit(f *testing.F) {
	full, _ := EncodeUnit(sampleEntry())
	f.Add(full)
	f.Add(full[:len(full)-9])
	f.Add([]byte(unitMagic))
	f.Add(seal(nil))
	f.Add(seal([]byte{0, 0, 0}))
	f.Add(oldRecord(f, "unit-v3.bin"))
	f.Add(oldRecord(f, "unit-v4.bin"))
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, rec := range [][]byte{data, seal(data)} {
			e, err := DecodeUnit(rec)
			if err != nil {
				continue
			}
			out, err := EncodeUnit(e)
			if err != nil {
				t.Fatalf("decoded entry does not re-encode: %v", err)
			}
			if !bytes.Equal(out, rec) {
				t.Fatalf("decoded entry re-encodes to other bytes:\n in %q\nout %q", rec, out)
			}
		}
	})
}
