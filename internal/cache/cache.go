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
	"sync/atomic"
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

// Metrics counts store traffic. All fields are manipulated
// atomically; read them with the corresponding Load methods while
// other goroutines may be writing.
type Metrics struct {
	hits    atomic.Int64
	misses  atomic.Int64
	puts    atomic.Int64
	putErrs atomic.Int64
}

// Hits returns the hit count.
func (m *Metrics) Hits() int64 { return m.hits.Load() }

// Misses returns the miss count.
func (m *Metrics) Misses() int64 { return m.misses.Load() }

// Puts returns the put count.
func (m *Metrics) Puts() int64 { return m.puts.Load() }

// PutErrors returns how many put calls the store failed: callers treat
// cache writes as best effort, so this is the only sign of a full disk.
func (m *Metrics) PutErrors() int64 { return m.putErrs.Load() }

// counted wraps a Store with traffic counting.
type counted struct {
	s Store
	m *Metrics
}

// WithMetrics returns a view of s that counts hits, misses, puts and
// failed puts into m.
func WithMetrics(s Store, m *Metrics) Store { return &counted{s: s, m: m} }

func (c *counted) Get(key string) ([]byte, bool) {
	data, ok := c.s.Get(key)
	if ok {
		c.m.hits.Add(1)
	} else {
		c.m.misses.Add(1)
	}
	return data, ok
}

func (c *counted) Put(key string, data []byte) error {
	return c.PutBatch(map[string][]byte{key: data})
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
