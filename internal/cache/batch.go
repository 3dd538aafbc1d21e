package cache

// Batched and probing store access (DESIGN.md §15). The fleet moves
// whole phases of unit entries at a time; on a remote store a
// round-trip per key would dominate, so backends can implement
// BatchStore and callers go through GetBatch/PutBatch, which fall back
// to key-at-a-time loops on plain stores. Semantics are exactly N
// independent Get/Put calls; batching changes only the I/O shape.

// BatchStore is an optional Store extension for multi-key traffic.
type BatchStore interface {
	Store
	// GetBatch returns the found subset of keys; absent keys are
	// simply missing from the map (a miss is not an error).
	GetBatch(keys []string) map[string][]byte
	// PutBatch stores every entry; an error may leave a prefix of the
	// entries stored (puts are idempotent, so retrying is safe).
	PutBatch(entries map[string][]byte) error
}

// Prober is an optional Store extension for existence checks without
// fetching the blob (the conformance suite exercises it; the fleet
// uses it for cheap warm-CAS probes).
type Prober interface {
	Has(key string) bool
}

// GetBatch fetches many keys through one backend round-trip when s
// implements BatchStore, falling back to sequential Gets.
func GetBatch(s Store, keys []string) map[string][]byte {
	if bs, ok := s.(BatchStore); ok {
		return bs.GetBatch(keys)
	}
	out := make(map[string][]byte, len(keys))
	for _, k := range keys {
		if data, ok := s.Get(k); ok {
			out[k] = data
		}
	}
	return out
}

// PutBatch stores many entries through one backend round-trip when s
// implements BatchStore, falling back to sequential Puts.
func PutBatch(s Store, entries map[string][]byte) error {
	if bs, ok := s.(BatchStore); ok {
		return bs.PutBatch(entries)
	}
	for k, data := range entries {
		if err := s.Put(k, data); err != nil {
			return err
		}
	}
	return nil
}

// Has reports whether key exists, using Prober when available and a
// full Get otherwise.
func Has(s Store, key string) bool {
	if p, ok := s.(Prober); ok {
		return p.Has(key)
	}
	_, ok := s.Get(key)
	return ok
}

// MemStore batch/probe extensions.

// GetBatch returns the stored subset of keys under one lock
// acquisition.
func (s *MemStore) GetBatch(keys []string) map[string][]byte {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make(map[string][]byte, len(keys))
	for _, k := range keys {
		if data, ok := s.m[k]; ok {
			out[k] = data
		}
	}
	return out
}

// PutBatch stores every entry under one lock acquisition.
func (s *MemStore) PutBatch(entries map[string][]byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for k, data := range entries {
		s.m[k] = data
	}
	return nil
}

// Has reports whether key is stored.
func (s *MemStore) Has(key string) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	_, ok := s.m[key]
	return ok
}

// counted batch/probe extensions: batch traffic lands in the same
// hit/miss/put counters as single-key traffic, and the underlying
// store's batching (or lack of it) passes through.

// GetBatch counts one hit per found key and one miss per absent key.
func (c *counted) GetBatch(keys []string) map[string][]byte {
	out := GetBatch(c.s, keys)
	c.m.hits.Add(int64(len(out)))
	c.m.misses.Add(int64(len(keys) - len(out)))
	return out
}

// PutBatch counts one put per entry, and one error per failed call.
func (c *counted) PutBatch(entries map[string][]byte) error {
	c.m.puts.Add(int64(len(entries)))
	err := PutBatch(c.s, entries)
	if err != nil {
		c.m.putErrs.Add(1)
	}
	return err
}

// Has probes without touching the counters (it is not a fetch).
func (c *counted) Has(key string) bool { return Has(c.s, key) }
