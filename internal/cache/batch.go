package cache

// Batched store access (DESIGN.md §15). The fleet moves whole phases of
// unit entries at a time; on a remote store a round-trip per key would
// dominate, so backends implement BatchStore and callers go through
// GetBatch/PutBatch, which fall back to key-at-a-time loops on plain
// stores (the test doubles that wrap a Store). Semantics are exactly N
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

// Has reports whether key is stored. It is a Get, so it answers exactly
// what Get would: a record that no longer verifies is not there.
func Has(s Store, key string) bool {
	_, ok := s.Get(key)
	return ok
}

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
