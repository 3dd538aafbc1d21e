package cache

// Serialized entry shapes. Three kinds of entry live in the store:
//
//   - AST entries: raw cc.EmitFile bytes keyed by file name + source
//     hash, so a warm run reads pass-1 output instead of re-parsing.
//   - Unit entries: one checker's complete analysis output for one
//     call-graph unit, in two sections — replay (report segments per
//     root, stats, rule counts, marks) and summaries (opaque until
//     asked for) — keyed by checker + options + environment + visible
//     marks + the unit's member-function hashes.
//   - The manifest: the previous run's file and function hashes, used
//     to compute changed/invalidated counts for stats and metrics
//     (correctness never depends on it — content addressing alone
//     decides reuse).

import (
	"encoding/binary"
	"encoding/json"
	"errors"

	"repro/internal/core"
	"repro/internal/prog"
	"repro/internal/report"
)

// RootReports is one root's report segment inside a unit entry. Root
// is the prog.FuncID of the root function.
type RootReports struct {
	Root    string           `json:"root"`
	Reports []*report.Report `json:"reports,omitempty"`
}

// UnitEntry is one checker's cached analysis of one call-graph unit.
// Its record has two sections (DESIGN.md §8): replay — everything a
// warm run needs to reproduce the unit's contribution without
// traversing it — and summaries, which only inspection reads and which
// stay undecoded until LoadSummaries. Summaries is nil after DecodeUnit
// and NewUnitEntry; EncodeUnit serializes a hand-set one.
type UnitEntry struct {
	Roots     []RootReports              `json:"roots"`
	Stats     core.Stats                 `json:"stats"`
	Rules     map[string]*core.RuleCount `json:"rules,omitempty"`
	Marks     []core.MarkEvent           `json:"marks,omitempty"`
	Summaries *core.SummaryData          `json:"-"`

	section []byte // the undecoded summary section
}

// NewUnitEntry is the one producer of unit records: the entry for a
// completed live run of en, given the per-root segments RunRoots
// returned. The summaries of funcs are exported once, straight into the
// encoded section; pass none when the engine streamed (it already
// evicted them to the spill store).
func NewUnitEntry(en *core.Engine, funcs []*prog.Function, runs []core.RootRun) *UnitEntry {
	e := &UnitEntry{Stats: en.Stats, Rules: en.RuleStats, Marks: en.MarkLog}
	if len(funcs) > 0 {
		// SummaryData is plain strings and ints: Marshal cannot fail.
		e.section, _ = json.Marshal(en.ExportSummaries(funcs))
	}
	for _, rr := range runs {
		e.Roots = append(e.Roots, RootReports{Root: prog.FuncID(rr.Root), Reports: rr.Reports})
	}
	return e
}

// unitMagic opens every unit record; a v2 record (bare JSON) or any
// other foreign blob fails the check instead of being mis-decoded.
const unitMagic = "xgu3"

// EncodeUnit serializes a unit entry: magic, uvarint length of the
// replay section, the replay section (JSON), and the summary section
// (JSON core.SummaryData, possibly empty) as the remainder.
func EncodeUnit(e *UnitEntry) ([]byte, error) {
	replay, err := json.Marshal(e)
	if err != nil {
		return nil, err
	}
	section := e.section
	if e.Summaries != nil {
		if section, err = json.Marshal(e.Summaries); err != nil {
			return nil, err
		}
	}
	buf := make([]byte, 0, len(unitMagic)+binary.MaxVarintLen64+len(replay)+len(section))
	buf = binary.AppendUvarint(append(buf, unitMagic...), uint64(len(replay)))
	return append(append(buf, replay...), section...), nil
}

// DecodeUnit parses a record's replay section and keeps its summary
// section as undecoded bytes aliasing data. Damage to the former is an
// error (the caller's miss), to the latter LoadSummaries' concern.
func DecodeUnit(data []byte) (*UnitEntry, error) {
	if len(data) < len(unitMagic) || string(data[:len(unitMagic)]) != unitMagic {
		return nil, errors.New("cache: not a unit record")
	}
	rest := data[len(unitMagic):]
	n, w := binary.Uvarint(rest)
	if w <= 0 || n > uint64(len(rest)-w) {
		return nil, errors.New("cache: truncated unit record")
	}
	rest = rest[w:]
	e := &UnitEntry{}
	if err := json.Unmarshal(rest[:n], e); err != nil {
		return nil, err
	}
	e.section = rest[n:]
	return e, nil
}

// DeferredBytes is the size of the still-undecoded summary section.
func (e *UnitEntry) DeferredBytes() int { return len(e.section) }

// LoadSummaries decodes the summary section into Summaries on first
// call. Summaries are advisory (inspection only), so a garbled section
// is dropped and reported, never fatal: the unit still replays.
func (e *UnitEntry) LoadSummaries() (*core.SummaryData, error) {
	if e.Summaries == nil && len(e.section) > 0 {
		sd := &core.SummaryData{}
		err := json.Unmarshal(e.section, sd)
		e.section = nil
		if err != nil {
			return nil, err
		}
		e.Summaries = sd
	}
	return e.Summaries, nil
}

// Manifest records the file and function content hashes of the last
// completed run under a given configuration.
type Manifest struct {
	// Files maps file name to source-content hash.
	Files map[string]string `json:"files"`
	// Funcs maps prog.FuncID to declaration content hash.
	Funcs map[string]string `json:"funcs"`
}

// ManifestKey derives the store key for the manifest under one
// analyzer configuration (checker set + options fingerprints).
func ManifestKey(configFP string) string { return Key("manifest", configFP) }

// LoadManifest reads the manifest for the configuration, or nil when
// absent or unreadable (a cold run).
func LoadManifest(s Store, configFP string) *Manifest {
	data, ok := s.Get(ManifestKey(configFP))
	if !ok {
		return nil
	}
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil
	}
	return &m
}

// SaveManifest writes the manifest for the configuration.
func SaveManifest(s Store, configFP string, m *Manifest) error {
	data, err := json.Marshal(m)
	if err != nil {
		return err
	}
	return s.Put(ManifestKey(configFP), data)
}

// ASTKey derives the store key for a pass-1 emitted AST.
func ASTKey(fileName, srcHash string) string { return Key("ast", fileName, srcHash) }

// UnitKey derives the store key for a unit entry. checkerFP covers
// the checker's source and load order; optsFP the core.Options;
// envFP the position-independent declaration environment; marksFP the
// visible composition marks at phase start; unitFP the sorted member
// FuncID+hash list.
func UnitKey(checkerFP, optsFP, envFP, marksFP, unitFP string) string {
	return Key("unit", checkerFP, optsFP, envFP, marksFP, unitFP)
}
