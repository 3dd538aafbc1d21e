// Package registry is the daemon's versioned checker inventory
// (DESIGN.md §14): uploaded metal checker sources stored
// content-addressed and versioned, with the daemon's one enabled set,
// all persisted on disk so a daemon restart loses nothing.
//
// The content address — cc.HashBytes over the exact source text — is
// the checker ID. It is deliberately the same fingerprint the
// incremental cache keys units by (mc loads checkers with
// cc.HashBytes(source) as the checker fingerprint), so enabling a new
// checker version invalidates exactly that checker's cached units and
// nothing else: unchanged checkers keep replaying byte-identically.
//
// Admission pipeline: an uploaded checker starts "pending" and cannot
// be enabled. A validation run (internal/harness) moves it to
// "admitted" or "rejected"; only admitted checkers can be enabled.
// Enabling a checker implicitly disables any other version of the same
// state machine — "upgrade" is one call.
package registry

import (
	"cmp"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"

	"repro/internal/cc"
	"repro/internal/metal"
)

// Validation status values for Entry.Status.
const (
	StatusPending  = "pending"
	StatusAdmitted = "admitted"
	StatusRejected = "rejected"
)

// Entry describes one stored checker version. Source text lives in a
// content-addressed blob next to the state file, not in the entry.
type Entry struct {
	// ID is the content address: cc.HashBytes over the source text.
	ID string `json:"id"`
	// Name is the checker's state-machine name (sm <name>;).
	Name string `json:"name"`
	// Version is assigned at upload: one greater than the highest
	// version previously stored under this Name.
	Version int `json:"version"`
	// Lines is the source line count (the paper's §1 "10-200 lines").
	Lines int `json:"lines"`
	// Status is the admission state: pending, admitted, or rejected.
	Status string `json:"status"`
	// Enabled puts the checker in the daemon's active set: every
	// analysis run loads the enabled entries.
	Enabled bool `json:"enabled,omitempty"`
	// Verdict is the validation harness's structured verdict, JSON
	// encoded; empty until a validation ran.
	Verdict json.RawMessage `json:"verdict,omitempty"`
}

// Registry is the inventory. All methods are safe for concurrent use,
// and every Entry they return is a copy.
type Registry struct {
	mu      sync.Mutex
	dir     string // "" = memory-only (no persistence)
	entries map[string]*Entry
	sources map[string]string // id -> source (memory mode or cache)
}

// state.json's on-disk shape.
type diskState struct {
	Entries []*Entry `json:"entries"`
	// Legacy is the per-name enabled sets of a state file written
	// before the registry kept one set. Open enables its "default"
	// set; save never writes it.
	Legacy map[string][]string `json:"tenants,omitempty"`
}

// Open loads (or creates) a registry rooted at dir. An empty dir
// yields a memory-only registry that vanishes with the process — the
// daemon's default when no -registry flag is given.
func Open(dir string) (*Registry, error) {
	r := &Registry{
		dir:     dir,
		entries: map[string]*Entry{},
		sources: map[string]string{},
	}
	if dir == "" {
		return r, nil
	}
	if err := os.MkdirAll(filepath.Join(dir, "blobs"), 0o755); err != nil {
		return nil, err
	}
	data, err := os.ReadFile(filepath.Join(dir, "state.json"))
	if os.IsNotExist(err) {
		return r, nil
	}
	if err != nil {
		return nil, err
	}
	var st diskState
	if err := json.Unmarshal(data, &st); err != nil {
		return nil, fmt.Errorf("registry state %s: %w", dir, err)
	}
	for _, e := range st.Entries {
		r.entries[e.ID] = e
	}
	for _, id := range st.Legacy["default"] {
		if e, ok := r.entries[id]; ok {
			e.Enabled = true
		}
	}
	return r, nil
}

// sortedLocked returns the live entries in (name, version) order, the
// order of every listing and of state.json. Callers hold r.mu.
func (r *Registry) sortedLocked() []*Entry {
	out := make([]*Entry, 0, len(r.entries))
	for _, e := range r.entries {
		out = append(out, e)
	}
	slices.SortFunc(out, func(a, b *Entry) int {
		return cmp.Or(strings.Compare(a.Name, b.Name), a.Version-b.Version)
	})
	return out
}

// save writes state.json atomically (temp file + rename). Callers
// hold r.mu.
func (r *Registry) save() error {
	if r.dir == "" {
		return nil
	}
	data, err := json.MarshalIndent(diskState{Entries: r.sortedLocked()}, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(r.dir, "state.json")
	tmp, err := os.CreateTemp(r.dir, "state-*.tmp")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// Upload stores a checker source. The source must parse as metal (the
// syntactic gate; behavioral gates are the harness's job). The
// returned bool is false when this exact text was already stored —
// uploads are idempotent by content address.
func (r *Registry) Upload(src string) (Entry, bool, error) {
	c, err := metal.Parse(src)
	if err != nil {
		return Entry{}, false, fmt.Errorf("checker does not parse: %w", err)
	}
	id := cc.HashBytes([]byte(src))

	r.mu.Lock()
	defer r.mu.Unlock()
	if e, ok := r.entries[id]; ok {
		return *e, false, nil
	}
	maxVer := 0
	for _, e := range r.entries {
		if e.Name == c.Name && e.Version > maxVer {
			maxVer = e.Version
		}
	}
	e := &Entry{
		ID:      id,
		Name:    c.Name,
		Version: maxVer + 1,
		Lines:   c.SourceLines,
		Status:  StatusPending,
	}
	if r.dir != "" {
		if err := os.WriteFile(r.blobPath(id), []byte(src), 0o644); err != nil {
			return Entry{}, false, err
		}
	}
	r.entries[id] = e
	r.sources[id] = src
	if err := r.save(); err != nil {
		return Entry{}, false, err
	}
	return *e, true, nil
}

func (r *Registry) blobPath(id string) string {
	return filepath.Join(r.dir, "blobs", id)
}

// Get returns the entry for an ID.
func (r *Registry) Get(id string) (Entry, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if e, ok := r.entries[id]; ok {
		return *e, true
	}
	return Entry{}, false
}

// Source returns the stored checker text for an ID, reading the blob
// on demand after a restart.
func (r *Registry) Source(id string) (string, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.sourceLocked(id)
}

func (r *Registry) sourceLocked(id string) (string, error) {
	if src, ok := r.sources[id]; ok {
		return src, nil
	}
	if _, ok := r.entries[id]; !ok {
		return "", fmt.Errorf("no checker %s", id)
	}
	data, err := os.ReadFile(r.blobPath(id))
	if err != nil {
		return "", err
	}
	r.sources[id] = string(data)
	return string(data), nil
}

// List returns every entry, ordered by (name, version) so output is
// deterministic.
func (r *Registry) List() []Entry {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []Entry
	for _, e := range r.sortedLocked() {
		out = append(out, *e)
	}
	return out
}

// SetVerdict records a validation outcome: admitted on ok, rejected
// otherwise, with the harness's structured verdict attached.
func (r *Registry) SetVerdict(id string, admitted bool, verdict json.RawMessage) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.entries[id]
	if !ok {
		return fmt.Errorf("no checker %s", id)
	}
	if admitted {
		e.Status = StatusAdmitted
	} else {
		e.Status = StatusRejected
	}
	e.Verdict = verdict
	return r.save()
}

// SetEnabled turns a checker on or off. Only admitted checkers can be
// turned on, and turning one on turns off every other version of the
// same checker name, so an upgrade is a single call.
func (r *Registry) SetEnabled(id string, on bool) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.entries[id]
	if !ok {
		return fmt.Errorf("no checker %s", id)
	}
	if on && e.Status != StatusAdmitted {
		return fmt.Errorf("checker %s (%s v%d) is %s, not admitted", id, e.Name, e.Version, e.Status)
	}
	if e.Enabled == on {
		return nil
	}
	if on {
		for _, other := range r.entries {
			if other.Name == e.Name {
				other.Enabled = false
			}
		}
	}
	e.Enabled = on
	return r.save()
}

// Delete removes a checker version everywhere: the entry and its blob.
func (r *Registry) Delete(id string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.entries[id]; !ok {
		return fmt.Errorf("no checker %s", id)
	}
	delete(r.entries, id)
	delete(r.sources, id)
	if r.dir != "" {
		os.Remove(r.blobPath(id)) // best effort; state.json is the truth
	}
	return r.save()
}

// EnabledSource is one active checker: the entry plus its source
// text, ready to load into an analyzer.
type EnabledSource struct {
	Entry  Entry
	Source string
}

// Enabled returns the active checkers in (name, version) order — the
// hot-reload read path: every analysis run loads exactly what one call
// returns.
func (r *Registry) Enabled() ([]EnabledSource, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []EnabledSource
	for _, e := range r.sortedLocked() {
		if !e.Enabled {
			continue
		}
		src, err := r.sourceLocked(e.ID)
		if err != nil {
			return nil, err
		}
		out = append(out, EnabledSource{Entry: *e, Source: src})
	}
	return out, nil
}
