package main

import (
	"sync"
	"time"

	"repro/internal/cache"
)

// timingStore is the instrumented cache.Store handed to the analyzer,
// the daemon or the CAS server in a traced run. It forwards every call
// (batch and probe calls too, so the wrapped backend keeps its I/O
// shape) and, once its probe is switched on, records one span per call
// and keeps the blobs it saw so the codec can be replayed over them.
type timingStore struct {
	inner cache.Store
	p     *probe

	mu       sync.Mutex
	gets     int64 // keys asked for
	hits     int64 // keys found
	puts     int64 // keys written
	getBytes int64
	putBytes int64
	getTime  time.Duration
	putTime  time.Duration
	gotBlobs map[string][]byte
	putBlobs map[string][]byte
}

func (s *timingStore) noteGet(d time.Duration, asked int, found map[string][]byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.gets += int64(asked)
	s.hits += int64(len(found))
	s.getTime += d
	for k, data := range found {
		s.getBytes += int64(len(data))
		s.gotBlobs[k] = data
	}
}

func (s *timingStore) notePut(d time.Duration, entries map[string][]byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.puts += int64(len(entries))
	s.putTime += d
	for k, data := range entries {
		s.putBytes += int64(len(data))
		s.putBlobs[k] = data
	}
}

func (s *timingStore) Get(key string) ([]byte, bool) {
	if !s.p.on.Load() {
		return s.inner.Get(key)
	}
	id := s.p.begin("cache.get")
	data, ok := s.inner.Get(key)
	d := s.p.end(id)
	found := map[string][]byte{}
	if ok {
		found[key] = data
	}
	s.noteGet(d, 1, found)
	return data, ok
}

func (s *timingStore) Put(key string, data []byte) error {
	if !s.p.on.Load() {
		return s.inner.Put(key, data)
	}
	id := s.p.begin("cache.put")
	err := s.inner.Put(key, data)
	s.notePut(s.p.end(id), map[string][]byte{key: data})
	return err
}

func (s *timingStore) GetBatch(keys []string) map[string][]byte {
	if !s.p.on.Load() {
		return cache.GetBatch(s.inner, keys)
	}
	id := s.p.begin("cache.get")
	found := cache.GetBatch(s.inner, keys)
	s.noteGet(s.p.end(id), len(keys), found)
	return found
}

func (s *timingStore) PutBatch(entries map[string][]byte) error {
	if !s.p.on.Load() {
		return cache.PutBatch(s.inner, entries)
	}
	id := s.p.begin("cache.put")
	err := cache.PutBatch(s.inner, entries)
	s.notePut(s.p.end(id), entries)
	return err
}

func (s *timingStore) Has(key string) bool { return cache.Has(s.inner, key) }
