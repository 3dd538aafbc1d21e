package main

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/cache/cachetest"
)

func TestTimingStoreConformance(t *testing.T) {
	for _, on := range []bool{false, true} {
		p := newProbe(t.TempDir())
		p.on.Store(on)
		cachetest.Conformance(t, func(t *testing.T) cache.Store { return p.wrapStore(cache.NewMemStore()) })
	}
}

func TestTimingStoreCounts(t *testing.T) {
	p := newProbe(t.TempDir())
	s := p.wrapStore(cache.NewMemStore())
	s.Put("unseen", []byte("xx")) // probe off: forwarded, not counted
	p.on.Store(true)
	s.Put("a", []byte("12345"))
	cache.PutBatch(s, map[string][]byte{"b": []byte("123"), "c": nil})
	s.Get("a")
	s.Get("missing")
	found := cache.GetBatch(s, []string{"a", "b", "unseen", "nope"})
	if len(found) != 3 {
		t.Fatalf("GetBatch found %d keys, want 3", len(found))
	}
	st := p.store
	if st.puts != 3 || st.putBytes != 8 || st.gets != 6 || st.hits != 4 || st.getBytes != 5+5+3+2 {
		t.Errorf("puts=%d putBytes=%d gets=%d hits=%d getBytes=%d", st.puts, st.putBytes, st.gets, st.hits, st.getBytes)
	}
	if len(st.putBlobs) != 3 || len(st.gotBlobs) != 3 {
		t.Errorf("kept %d put and %d got blobs, want 3 and 3", len(st.putBlobs), len(st.gotBlobs))
	}
	if n := len(p.tr.spans); n != 5 {
		t.Errorf("%d spans, want one per counted call (5)", n)
	}
}
