// Package spill is what is left of the streaming mode's on-disk summary
// store (DESIGN.md §12): a run wrote it and nothing ever read it, so
// the store, its LRU and the engine hooks that fed it are deleted. The
// three functions below have no product caller; they stay only because
// the frozen benchmark/layers.go (spill.Encode at lines 466 and 545,
// spill.OpenLog at 553, spill.Decode at 575) still models a streaming
// run as this codec over a packed log, and go with the benchmark PR
// that drops that model (ROADMAP item 2).
package spill

import (
	"encoding/json"

	"repro/internal/cache"
	"repro/internal/core"
)

// Encode serializes one summary block as deterministic JSON: functions
// in input order, blocks in CFG order, edges in edgeSet order, so
// encode∘decode∘encode is a byte-level fixed point (pinned by
// TestRoundTripFixedPoint).
func Encode(sd *core.SummaryData) ([]byte, error) { return json.Marshal(sd) }

// Decode reverses Encode.
func Decode(data []byte) (*core.SummaryData, error) {
	sd := &core.SummaryData{}
	if err := json.Unmarshal(data, sd); err != nil {
		return nil, err
	}
	return sd, nil
}

// OpenLog opens a packed log at path: the cache's one disk store type.
func OpenLog(path string) (*cache.LogStore, error) { return cache.OpenLogStore(path) }
