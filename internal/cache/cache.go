// Package cache is the content-addressed persistent store behind
// incremental analysis (DESIGN.md §8). Entries are keyed by SHA-256
// fingerprints of everything the cached computation depends on —
// function content, checker source, core.Options, the declaration
// environment, visible composition marks — so invalidation is
// implicit: an edit changes the key, and the stale entry is simply
// never asked for again. Stores are safe for concurrent use.
package cache

import (
	"crypto/sha256"
	"encoding/hex"
	"sync"
)

// FormatVersion is folded into every key; bump it when any serialized
// form changes so old cache directories degrade to cold runs instead
// of mis-deserializing.
const FormatVersion = "xgcc-cache-v4" // v4: one-section unit records (entry.go)

// Key derives a cache key: the hex SHA-256 of the format version and
// the given parts, length-prefixed so part boundaries can't alias.
func Key(parts ...string) string {
	h := sha256.New()
	writePart := func(p string) {
		var lenbuf [8]byte
		n := len(p)
		for i := 0; i < 8; i++ {
			lenbuf[i] = byte(n >> (8 * i))
		}
		h.Write(lenbuf[:])
		h.Write([]byte(p))
	}
	writePart(FormatVersion)
	for _, p := range parts {
		writePart(p)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// Store is a content-addressed blob store. Get reports a miss with
// ok == false; Put overwrites silently (same key implies same content,
// so overwrites are idempotent).
type Store interface {
	Get(key string) (data []byte, ok bool)
	Put(key string, data []byte) error
}

// MemStore is an in-memory store: the daemon's resident cache, and
// the test double.
type MemStore struct {
	mu sync.RWMutex
	m  map[string][]byte
}

// NewMemStore returns an empty in-memory store.
func NewMemStore() *MemStore { return &MemStore{m: map[string][]byte{}} }

// Get returns the blob stored under key.
func (s *MemStore) Get(key string) ([]byte, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	data, ok := s.m[key]
	return data, ok
}

// Put stores the blob under key. The caller must not mutate data
// afterwards.
func (s *MemStore) Put(key string, data []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.m[key] = data
	return nil
}

// Len returns the number of stored entries.
func (s *MemStore) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.m)
}
