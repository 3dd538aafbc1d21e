package cache

// Serialized entry shapes. The analysis stores one kind of entry, the
// unit entry: one checker's complete analysis output for one call-graph
// unit — report segments per root, stats, rule counts, marks: what a
// warm run replays — keyed
// by checker + options + environment + visible marks + the unit's
// member-function hashes. Every key names the complete computation
// behind its value, so a run writes only keys the store lacked, or
// held damaged.

import (
	"bytes"
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

// UnitEntry is one checker's cached analysis of one call-graph unit:
// everything a warm run needs to reproduce the unit's contribution
// without traversing it, and nothing else (DESIGN.md §8). Summaries is
// a vestige: nothing sets or stores it, and it stays only because the
// frozen benchmark/layers.go:511 reads the field.
type UnitEntry struct {
	Roots     []RootReports              `json:"roots"`
	Stats     core.Stats                 `json:"stats"`
	Rules     map[string]*core.RuleCount `json:"rules,omitempty"`
	Marks     []core.MarkEvent           `json:"marks,omitempty"`
	Summaries *core.SummaryData          `json:"-"`
}

// NewUnitEntry is the one producer of unit records: the entry for a
// live run of one unit, from the per-root segments RunRoots returned and
// the engine's cut at the unit boundary.
func NewUnitEntry(cut core.UnitCut, runs []core.RootRun) *UnitEntry {
	e := &UnitEntry{Stats: cut.Stats, Rules: cut.Rules, Marks: cut.Marks, Roots: make([]RootReports, len(runs))}
	for i, rr := range runs {
		e.Roots[i] = RootReports{Root: prog.FuncID(rr.Root), Reports: rr.Reports}
	}
	return e
}

// unitMagic opens every unit record; a v3 record (two sections), a v2
// one (bare JSON) or any other foreign blob fails the check instead of
// being mis-decoded.
const unitMagic = "xgu4"

// EncodeUnit serializes a unit entry: magic, then the entry as JSON.
func EncodeUnit(e *UnitEntry) ([]byte, error) {
	replay, err := json.Marshal(e)
	if err != nil {
		return nil, err
	}
	buf := make([]byte, 0, len(unitMagic)+len(replay))
	return append(append(buf, unitMagic...), replay...), nil
}

// DecodeUnit parses a record. Any damage is an error: the caller's miss.
func DecodeUnit(data []byte) (*UnitEntry, error) {
	replay, ok := bytes.CutPrefix(data, []byte(unitMagic))
	if !ok {
		return nil, errors.New("cache: not a unit record")
	}
	e := &UnitEntry{}
	if err := json.Unmarshal(replay, e); err != nil {
		return nil, err
	}
	return e, nil
}

// UnitKey derives the store key for a unit entry. checkerFP covers
// the checker's source; optsFP the core.Options;
// envFP the position-independent declaration environment; marksFP the
// visible composition marks at phase start; unitFP the sorted member
// FuncID+hash list.
func UnitKey(checkerFP, optsFP, envFP, marksFP, unitFP string) string {
	return Key("unit", checkerFP, optsFP, envFP, marksFP, unitFP)
}
