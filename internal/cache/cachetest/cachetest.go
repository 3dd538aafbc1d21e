// Package cachetest is the shared backend-conformance suite for
// cache.Store implementations (DESIGN.md §15). Every backend — the
// local dir store, the in-memory store, the HTTP blob store — must
// behave identically under it, because the analysis replay layer
// treats all of them as the same content-addressed space: a behavioral
// difference between backends would surface as a mode-dependent output
// difference, which the fleet's byte-identical guarantee forbids.
package cachetest

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"sync"
	"testing"

	"repro/internal/cache"
)

// Conformance runs the full suite against the store that open returns.
// open is called once per subtest with a distinct namespace-free
// expectation: each subtest uses its own key space, so one store
// instance may back all subtests.
func Conformance(t *testing.T, open func(t *testing.T) cache.Store) {
	t.Helper()
	t.Run("GetMissing", func(t *testing.T) {
		s := open(t)
		if data, ok := s.Get(cache.Key("conformance", "missing")); ok {
			t.Fatalf("missing key returned ok with %d bytes", len(data))
		}
	})
	t.Run("PutGetRoundTrip", func(t *testing.T) {
		s := open(t)
		key := cache.Key("conformance", "roundtrip")
		want := []byte("blob \x00\x01\xff payload")
		if err := s.Put(key, want); err != nil {
			t.Fatalf("Put: %v", err)
		}
		got, ok := s.Get(key)
		if !ok || !bytes.Equal(got, want) {
			t.Fatalf("Get = %q ok=%v, want %q", got, ok, want)
		}
	})
	t.Run("EmptyBlob", func(t *testing.T) {
		s := open(t)
		key := cache.Key("conformance", "empty")
		if err := s.Put(key, nil); err != nil {
			t.Fatalf("Put empty: %v", err)
		}
		got, ok := s.Get(key)
		if !ok || len(got) != 0 {
			t.Fatalf("empty blob: got %q ok=%v, want empty ok", got, ok)
		}
	})
	t.Run("OverwriteIdempotent", func(t *testing.T) {
		s := open(t)
		key := cache.Key("conformance", "overwrite")
		for i := 0; i < 3; i++ {
			if err := s.Put(key, []byte("same content")); err != nil {
				t.Fatalf("Put %d: %v", i, err)
			}
		}
		got, ok := s.Get(key)
		if !ok || string(got) != "same content" {
			t.Fatalf("after overwrites: %q ok=%v", got, ok)
		}
	})
	t.Run("Has", func(t *testing.T) {
		s := open(t)
		key := cache.Key("conformance", "has")
		if cache.Has(s, key) {
			t.Fatal("Has on missing key = true")
		}
		if err := s.Put(key, []byte("x")); err != nil {
			t.Fatalf("Put: %v", err)
		}
		if !cache.Has(s, key) {
			t.Fatal("Has on stored key = false")
		}
	})
	t.Run("Batch", func(t *testing.T) {
		s := open(t)
		entries := map[string][]byte{}
		var keys []string
		for i := 0; i < 20; i++ {
			k := cache.Key("conformance", "batch", fmt.Sprint(i))
			entries[k] = []byte(fmt.Sprintf("entry-%d", i))
			keys = append(keys, k)
		}
		if err := cache.PutBatch(s, entries); err != nil {
			t.Fatalf("PutBatch: %v", err)
		}
		// Ask for all stored keys plus two absent ones: the found map
		// must hold exactly the stored set.
		probe := append(append([]string(nil), keys...),
			cache.Key("conformance", "batch", "absent-a"),
			cache.Key("conformance", "batch", "absent-b"))
		got := cache.GetBatch(s, probe)
		if len(got) != len(entries) {
			t.Fatalf("GetBatch found %d entries, want %d", len(got), len(entries))
		}
		for k, want := range entries {
			if !bytes.Equal(got[k], want) {
				t.Fatalf("GetBatch[%s] = %q, want %q", k, got[k], want)
			}
		}
		// Batch and single-key views must agree.
		for k, want := range entries {
			single, ok := s.Get(k)
			if !ok || !bytes.Equal(single, want) {
				t.Fatalf("Get after PutBatch: %q ok=%v, want %q", single, ok, want)
			}
		}
	})
	t.Run("EmptyBatch", func(t *testing.T) {
		s := open(t)
		if err := cache.PutBatch(s, nil); err != nil {
			t.Fatalf("empty PutBatch: %v", err)
		}
		if got := cache.GetBatch(s, nil); len(got) != 0 {
			t.Fatalf("empty GetBatch returned %d entries", len(got))
		}
	})
	t.Run("ConcurrentWriters", func(t *testing.T) {
		// Same-key concurrent writers always write identical content in
		// the content-addressed world; the store must never surface a
		// torn mix. Distinct-key writers must all land.
		s := open(t)
		const writers = 8
		const rounds = 25
		var wg sync.WaitGroup
		sameKey := cache.Key("conformance", "concurrent-same")
		same := bytes.Repeat([]byte("identical-content-"), 64)
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < rounds; i++ {
					if err := s.Put(sameKey, same); err != nil {
						t.Errorf("writer %d: %v", w, err)
						return
					}
					k := cache.Key("conformance", "concurrent", fmt.Sprint(w), fmt.Sprint(i))
					if err := s.Put(k, []byte(fmt.Sprintf("w%d-i%d", w, i))); err != nil {
						t.Errorf("writer %d: %v", w, err)
						return
					}
					if data, ok := s.Get(sameKey); ok && !bytes.Equal(data, same) {
						t.Errorf("torn read: %d bytes", len(data))
						return
					}
				}
			}(w)
		}
		wg.Wait()
		if got, ok := s.Get(sameKey); !ok || !bytes.Equal(got, same) {
			t.Fatalf("same-key entry lost after concurrent writers (ok=%v)", ok)
		}
		for w := 0; w < writers; w++ {
			for i := 0; i < rounds; i++ {
				k := cache.Key("conformance", "concurrent", fmt.Sprint(w), fmt.Sprint(i))
				if got, ok := s.Get(k); !ok || string(got) != fmt.Sprintf("w%d-i%d", w, i) {
					t.Fatalf("distinct-key entry w%d i%d lost (ok=%v got=%q)", w, i, ok, got)
				}
			}
		}
	})
	t.Run("CorruptEntryTolerance", func(t *testing.T) {
		// A corrupted entry must never panic the replay layer: the
		// decode fails and the consumer treats the key as a miss. The
		// store itself only promises to return bytes or a miss.
		s := open(t)
		key := cache.Key("conformance", "corrupt")
		if err := s.Put(key, []byte("{\"truncated\": ")); err != nil {
			t.Fatalf("Put: %v", err)
		}
		data, ok := s.Get(key)
		if !ok {
			// A backend that detects and drops corrupt entries is also
			// conformant: a miss is always safe.
			return
		}
		if _, err := cache.DecodeUnit(data); err == nil {
			t.Fatal("DecodeUnit accepted a truncated entry")
		}
	})
}

// Reopen is the disk half of the suite: what a store that outlives its
// handle must guarantee (DESIGN.md §8). open returns a new handle on
// the store in dir, and may be called several times for one dir while
// earlier handles are still live. The guarantee cases never close a
// handle, because the analysis layers never do; only the loops that open
// hundreds do, to stay under the descriptor limit. file names the
// store's one data file, which the crash cases cut and corrupt.
func Reopen(t *testing.T, open func(t *testing.T, dir string) cache.Store, file func(dir string) string) {
	t.Helper()
	key := func(parts ...string) string { return cache.Key(append([]string{"reopen"}, parts...)...) }
	mustPut := func(t *testing.T, s cache.Store, k string, data []byte) {
		t.Helper()
		if err := s.Put(k, data); err != nil {
			t.Fatalf("Put: %v", err)
		}
	}
	mustGet := func(t *testing.T, s cache.Store, k string, want []byte) {
		t.Helper()
		if got, ok := s.Get(k); !ok || !bytes.Equal(got, want) {
			t.Fatalf("Get(%.8s) = %d bytes ok=%v, want %d bytes", k, len(got), ok, len(want))
		}
	}
	blob := func(i int) []byte { return bytes.Repeat([]byte{byte('a' + i)}, 40+300*i) }
	closeHandle := func(s cache.Store) {
		if c, ok := s.(io.Closer); ok {
			c.Close()
		}
	}

	t.Run("VisibleWithoutClose", func(t *testing.T) {
		dir := t.TempDir()
		a := open(t, dir)
		mustPut(t, a, key("single"), []byte("one put"))
		batch := map[string][]byte{}
		for i := 0; i < 5; i++ {
			batch[key("batch", fmt.Sprint(i))] = blob(i)
		}
		if err := cache.PutBatch(a, batch); err != nil {
			t.Fatalf("PutBatch: %v", err)
		}
		b := open(t, dir) // a is still open and was never flushed or closed
		mustGet(t, b, key("single"), []byte("one put"))
		for k, want := range batch {
			mustGet(t, b, k, want)
			if !cache.Has(b, k) {
				t.Fatalf("Has(%.8s) = false after reopen", k)
			}
		}
	})
	t.Run("LatestWinsAcrossReopen", func(t *testing.T) {
		dir := t.TempDir()
		a := open(t, dir)
		mustPut(t, a, key("dup"), []byte("old"))
		mustPut(t, a, key("other"), []byte("untouched"))
		mustPut(t, a, key("dup"), []byte("newer and longer"))
		mustGet(t, a, key("dup"), []byte("newer and longer"))
		b := open(t, dir)
		mustGet(t, b, key("dup"), []byte("newer and longer"))
		mustGet(t, b, key("other"), []byte("untouched"))
	})
	t.Run("TornTailThenAppend", func(t *testing.T) {
		// Three records, the file cut mid-third, then records shorter than
		// what is left of the third. The next handle must cut that residue
		// out of the file: left in place it is either parsed as records
		// nobody put, or, with appends going to the end of the file, sits
		// in front of them and mis-frames every one.
		dir := t.TempDir()
		a := open(t, dir)
		mustPut(t, a, key("torn", "0"), blob(1))
		mustPut(t, a, key("torn", "1"), blob(2))
		mustPut(t, a, key("torn", "2"), bytes.Repeat([]byte{'c'}, 5000))
		fi, err := os.Stat(file(dir))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.Truncate(file(dir), fi.Size()-2500); err != nil {
			t.Fatal(err)
		}
		b := open(t, dir)
		mustPut(t, b, key("torn", "short"), []byte("s"))
		mustPut(t, b, key("torn", "3"), []byte("three"))
		mustPut(t, b, key("torn", "4"), []byte("four"))
		c := open(t, dir)
		if _, ok := c.Get(key("torn", "2")); ok {
			t.Fatal("the torn record is served")
		}
		fresh := t.TempDir()
		fs := open(t, fresh)
		for k, want := range map[string][]byte{
			key("torn", "0"): blob(1), key("torn", "1"): blob(2), key("torn", "short"): []byte("s"),
			key("torn", "3"): []byte("three"), key("torn", "4"): []byte("four"),
		} {
			mustGet(t, c, k, want)
			mustPut(t, fs, k, want)
		}
		got, _ := os.Stat(file(dir))
		want, _ := os.Stat(file(fresh))
		if got.Size() != want.Size() {
			t.Errorf("file is %d bytes, its five records are %d: the torn residue is still in it", got.Size(), want.Size())
		}
	})
	t.Run("EveryCutServesAPrefix", func(t *testing.T) {
		// A crash can leave any prefix of the file. Whatever the cut, open
		// must not panic, must serve exactly a prefix of the records, each
		// byte-identical, and must take new records afterwards.
		src := t.TempDir()
		a := open(t, src)
		const n = 5
		small := func(i int) []byte { return blob(i)[:10+30*i] }
		for i := 0; i < n; i++ {
			mustPut(t, a, key("cut", fmt.Sprint(i)), small(i))
		}
		whole, err := os.ReadFile(file(src))
		if err != nil {
			t.Fatal(err)
		}
		for cut := 0; cut <= len(whole); cut++ {
			dir := t.TempDir()
			if err := os.WriteFile(file(dir), whole[:cut], 0o644); err != nil {
				t.Fatal(err)
			}
			s := open(t, dir)
			served := 0
			for i := 0; i < n; i++ {
				got, ok := s.Get(key("cut", fmt.Sprint(i)))
				if !ok {
					break
				}
				if !bytes.Equal(got, small(i)) {
					t.Fatalf("cut %d: record %d served with wrong bytes", cut, i)
				}
				served++
			}
			for i := served; i < n; i++ {
				if _, ok := s.Get(key("cut", fmt.Sprint(i))); ok {
					t.Fatalf("cut %d: record %d served after record %d was lost", cut, i, served)
				}
			}
			if cut == len(whole) && served != n {
				t.Fatalf("uncut file serves %d of %d records", served, n)
			}
			mustPut(t, s, key("cut", "after"), []byte("appended"))
			again := open(t, dir)
			mustGet(t, again, key("cut", "after"), []byte("appended"))
			closeHandle(s)
			closeHandle(again)
		}
	})
	t.Run("ChecksumFlipIsAMiss", func(t *testing.T) {
		dir := t.TempDir()
		a := open(t, dir)
		mustPut(t, a, key("flip", "before"), []byte("intact before"))
		victim := bytes.Repeat([]byte("victim payload "), 20)
		mustPut(t, a, key("flip", "victim"), victim)
		mustPut(t, a, key("flip", "after"), []byte("intact after"))
		data, err := os.ReadFile(file(dir))
		if err != nil {
			t.Fatal(err)
		}
		at := bytes.Index(data, victim)
		if at < 0 {
			t.Fatal("payload not found verbatim in the store file")
		}
		data[at+len(victim)/2] ^= 0x40
		if err := os.WriteFile(file(dir), data, 0o644); err != nil {
			t.Fatal(err)
		}
		b := open(t, dir)
		if got, ok := b.Get(key("flip", "victim")); ok {
			t.Fatalf("corrupted record served (%d bytes)", len(got))
		}
		if got := cache.GetBatch(b, []string{key("flip", "victim"), key("flip", "after")}); len(got) != 1 {
			t.Fatalf("GetBatch over a corrupted record found %d entries, want 1", len(got))
		}
		if cache.Has(b, key("flip", "victim")) {
			t.Fatal("Has reports a record Get refuses")
		}
		mustGet(t, b, key("flip", "before"), []byte("intact before"))
		mustGet(t, b, key("flip", "after"), []byte("intact after"))
	})
	t.Run("ConcurrentHandles", func(t *testing.T) {
		// Two handles on one directory (two processes sharing -cache, or a
		// cold and a warm analyzer in one) append at once: no record may
		// overwrite or splice another.
		dir := t.TempDir()
		handles := []cache.Store{open(t, dir), open(t, dir)}
		const writers, rounds = 4, 40
		val := func(h, w, i int) []byte { return bytes.Repeat([]byte(fmt.Sprintf("h%dw%di%d|", h, w, i)), 1+(w+i)%17) }
		var wg sync.WaitGroup
		for h, s := range handles {
			for w := 0; w < writers; w++ {
				wg.Add(1)
				go func(h, w int, s cache.Store) {
					defer wg.Done()
					for i := 0; i < rounds; i += 2 {
						if err := s.Put(key("conc", fmt.Sprint(h, w, i)), val(h, w, i)); err != nil {
							t.Errorf("handle %d writer %d: %v", h, w, err)
							return
						}
						pair := map[string][]byte{key("conc", fmt.Sprint(h, w, i+1)): val(h, w, i+1)}
						if err := cache.PutBatch(s, pair); err != nil {
							t.Errorf("handle %d writer %d: %v", h, w, err)
							return
						}
						if got, ok := s.Get(key("conc", fmt.Sprint(h, w, i))); !ok || !bytes.Equal(got, val(h, w, i)) {
							t.Errorf("handle %d writer %d: own record %d not served back", h, w, i)
							return
						}
					}
				}(h, w, s)
			}
		}
		wg.Wait()
		third := open(t, dir)
		for h := range handles {
			for w := 0; w < writers; w++ {
				for i := 0; i < rounds; i++ {
					mustGet(t, third, key("conc", fmt.Sprint(h, w, i)), val(h, w, i))
				}
			}
		}
	})
}
