package cache

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

func openLog(t testing.TB, path string) *LogStore {
	t.Helper()
	l, err := OpenLogStore(path)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func TestLogRoundTrip(t *testing.T) {
	l := openLog(t, filepath.Join(t.TempDir(), "summaries.log"))
	defer l.Close()
	for i := 0; i < 50; i++ {
		if err := l.Put(fmt.Sprintf("k%d", i), bytes.Repeat([]byte{byte(i)}, i+1)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 50; i++ {
		data, ok := l.Get(fmt.Sprintf("k%d", i))
		if !ok || !bytes.Equal(data, bytes.Repeat([]byte{byte(i)}, i+1)) {
			t.Fatalf("k%d: ok=%v data=%v", i, ok, data)
		}
	}
	if _, ok := l.Get("absent"); ok {
		t.Fatal("absent key found")
	}
}

func TestLogReopenRebuildsIndex(t *testing.T) {
	path := filepath.Join(t.TempDir(), "summaries.log")
	l := openLog(t, path)
	for i := 0; i < 10; i++ {
		l.Put(fmt.Sprintf("k%d", i), []byte{byte(i)})
	}
	l.Put("k3", []byte("three, again"))
	want := *l.Stats()
	l.Close()

	l2 := openLog(t, path)
	defer l2.Close()
	if got := *l2.Stats(); got != want || got.Records != 10 || got.SupersededBytes == 0 {
		t.Fatalf("reopened stats %+v, want %+v (10 records, one superseded)", got, want)
	}
	if data, ok := l2.Get("k7"); !ok || !bytes.Equal(data, []byte{7}) {
		t.Fatalf("k7 after reopen: %v %v", data, ok)
	}
	if data, ok := l2.Get("k3"); !ok || string(data) != "three, again" {
		t.Fatalf("k3 after reopen: %q %v, want the later record", data, ok)
	}
}

// A torn tail (crash mid-append) is cut out of the file at open, so the
// file is whole records only and new appends land right behind them.
func TestLogTornTailTruncated(t *testing.T) {
	path := filepath.Join(t.TempDir(), "summaries.log")
	l := openLog(t, path)
	l.Put("whole", []byte("intact"))
	l.Close()
	whole, _ := os.Stat(path)

	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	// A key-length prefix promising more bytes than exist.
	f.Write([]byte{200})
	f.Close()

	l2 := openLog(t, path)
	defer l2.Close()
	if fi, _ := os.Stat(path); fi.Size() != whole.Size() {
		t.Fatalf("file is %d bytes after open, want the %d of its whole records", fi.Size(), whole.Size())
	}
	if data, ok := l2.Get("whole"); !ok || string(data) != "intact" {
		t.Fatalf("whole record lost after torn tail: %v %v", data, ok)
	}
	if err := l2.Put("after", []byte("tear")); err != nil {
		t.Fatal(err)
	}
	if data, ok := l2.Get("after"); !ok || string(data) != "tear" {
		t.Fatalf("append after torn tail: %v %v", data, ok)
	}
}

// A handle whose file another handle rewrote in place — a torn-tail
// truncation at open followed by appends, the only in-place rewrite the
// log has — keeps answering from its own index, and whatever it reads
// through a stale span into the new bytes fails the checksum: a miss.
func TestLogStaleHandleNeverSplices(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.log")
	a := openLog(t, path)
	a.Put("x", bytes.Repeat([]byte("x"), 300))
	a.Put("y", bytes.Repeat([]byte("y"), 300))

	// Rewrite the file in place behind a's back, same length, other
	// content.
	data, _ := os.ReadFile(path)
	for i := len(data) / 2; i < len(data); i++ {
		data[i] = 'z'
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if got, ok := a.Get("x"); !ok || !bytes.Equal(got, bytes.Repeat([]byte("x"), 300)) {
		t.Fatalf("untouched record: %d bytes ok=%v", len(got), ok)
	}
	if got, ok := a.Get("y"); ok {
		t.Fatalf("overwritten span served %d bytes", len(got))
	}
}

// FuzzOpenStore: no file content may panic or hang the open scan;
// every key it indexes answers Get with verified bytes or a miss; the
// store takes a new record afterwards; and a second open of what the
// first left behind (torn tail cut) serves exactly the same answers.
func FuzzOpenStore(f *testing.F) {
	var rec []byte
	rec, _ = appendRecord(rec, "alpha", []byte("first payload"))
	rec, _ = appendRecord(rec, "beta", nil)
	rec, _ = appendRecord(rec, "alpha", []byte("second"))
	f.Add(rec)
	f.Add(rec[:len(rec)-3])
	f.Add(append(append([]byte(nil), rec...), 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01))
	f.Add([]byte{0x80, 0x00, 0x80, 0x00, 1, 2, 3, 4}) // non-minimal uvarints
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "store.log")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		l := openLog(t, path)
		defer l.Close()
		served := map[string][]byte{}
		for k, sp := range l.idx {
			if got, ok := l.Get(k); ok {
				if checksum(k, got) != sp.sum {
					t.Fatalf("Get(%q) served bytes that fail their checksum", k)
				}
				served[k] = got
			}
		}
		if err := l.Put("probe\x00key", []byte("probe")); err != nil {
			t.Fatal(err)
		}
		served["probe\x00key"] = []byte("probe")

		l2 := openLog(t, path)
		defer l2.Close()
		if len(l2.idx) != len(l.idx) {
			t.Fatalf("second open indexes %d keys, first %d", len(l2.idx), len(l.idx))
		}
		for k, want := range served {
			if got, ok := l2.Get(k); !ok || !bytes.Equal(got, want) {
				t.Fatalf("second open: Get(%q) = %q %v, want %q", k, got, ok, want)
			}
		}
	})
}

// callsS is the record shape one cold calls-S run of the bundled suite
// wrote while unit records carried summaries: 2685 records, 5.6 MB (v4
// records make that 1.1 MB; the larger shape stays so the series reads on).
func callsS() map[string][]byte {
	entries := make(map[string][]byte, 2685)
	for i := 0; i < 2685; i++ {
		entries[Key("bench", fmt.Sprint(i))] = bytes.Repeat([]byte{byte(i)}, 5_600_000/2685)
	}
	return entries
}

func BenchmarkStorePutBatch(b *testing.B) {
	entries := callsS()
	path := filepath.Join(b.TempDir(), "store.log")
	b.SetBytes(5_600_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l := openLog(b, path)
		if err := l.PutBatch(entries); err != nil {
			b.Fatal(err)
		}
		l.Close()
		b.StopTimer()
		os.Remove(path) // a fresh file per fill, without keeping b.N of them
		b.StartTimer()
	}
}

func BenchmarkStoreOpen(b *testing.B) {
	path := filepath.Join(b.TempDir(), "store.log")
	l := openLog(b, path)
	if err := l.PutBatch(callsS()); err != nil {
		b.Fatal(err)
	}
	l.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l := openLog(b, path)
		if l.Stats().Records != 2685 {
			b.Fatalf("indexed %d records", l.Stats().Records)
		}
		l.Close()
	}
}

// TestLogFrameIsStable pins the on-disk frame of one known record:
// uvarint(len key), uvarint(len data), CRC-32C of key then data (little
// endian), key, data. A store written by an earlier release still opens
// and verifies, however checksum reads the key.
func TestLogFrameIsStable(t *testing.T) {
	const golden = "08096b7dcd9b756e69742d6b6579786775350102030405"
	frame, sp := appendRecord(nil, "unit-key", []byte("xgu5\x01\x02\x03\x04\x05"))
	if got := fmt.Sprintf("%x", frame); got != golden {
		t.Errorf("frame = %s, golden %s", got, golden)
	}
	if sp.off != int64(len(frame)-9) || sp.len != 9 || sp.sum != checksum("unit-key", []byte("xgu5\x01\x02\x03\x04\x05")) {
		t.Errorf("span = %+v", sp)
	}
}

// TestLogGetAllocs: a warm Get allocates only the buffer it returns;
// checksumming the key copies nothing (it allocated 2 while checksum
// converted the key with []byte).
func TestLogGetAllocs(t *testing.T) {
	l := openLog(t, filepath.Join(t.TempDir(), "store.log"))
	defer l.Close()
	key := Key("unit", "warm")
	if err := l.Put(key, bytes.Repeat([]byte{7}, 300)); err != nil {
		t.Fatal(err)
	}
	if got := testing.AllocsPerRun(100, func() {
		if _, ok := l.Get(key); !ok {
			t.Fatal("miss")
		}
	}); got != 1 {
		t.Errorf("a warm Get allocates %v objects, want 1 (the returned buffer)", got)
	}
}

// mapSink keeps TestLogGetBatchAllocs' reference map on the heap.
var mapSink map[string][]byte

// TestLogGetBatchAllocs: apart from the result map, a batch allocates
// one read buffer however many records it hits; each record is a slice
// of it (it allocated one buffer per record).
func TestLogGetBatchAllocs(t *testing.T) {
	l := openLog(t, filepath.Join(t.TempDir(), "store.log"))
	defer l.Close()
	entries := map[string][]byte{}
	var keys []string
	for i := 0; i < 64; i++ {
		k := Key("unit", fmt.Sprint(i))
		entries[k] = bytes.Repeat([]byte{byte(i)}, 100+i)
		keys = append(keys, k)
	}
	if err := l.PutBatch(entries); err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{2, 64} {
		batch := testing.AllocsPerRun(50, func() {
			if got := l.GetBatch(keys[:n]); len(got) != n {
				t.Fatalf("%d of %d hits", len(got), n)
			}
		})
		result := testing.AllocsPerRun(50, func() {
			mapSink = make(map[string][]byte, n)
			for _, k := range keys[:n] {
				mapSink[k] = nil
			}
		})
		if batch-result != 1 {
			t.Errorf("a batch of %d hits allocates %v objects beside its result map's %v, want 1 (one read buffer)", n, batch-result, result)
		}
	}
	got := l.GetBatch(keys)
	for _, k := range keys {
		if !bytes.Equal(got[k], entries[k]) {
			t.Fatalf("%s read back other bytes", k)
		}
	}
}
