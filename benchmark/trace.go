package main

// Spans are recorded from the benchmark's side of each layer boundary
// only (spans inside the program are ROADMAP item 5), kept in memory,
// and written at exit as Chrome trace-event JSON.

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// Span is one timed call into a layer. Parent is the span that caused
// it (0 = none); Op is the workload op it belongs to.
type Span struct {
	ID     int
	Parent int
	Name   string
	Op     int
	Start  time.Duration // since the tracer's epoch
	End    time.Duration
}

type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	op    int
	spans []Span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its id for end and for children.
func (t *tracer) begin(name string, parent int) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, Span{ID: len(t.spans) + 1, Parent: parent, Name: name, Op: t.op, Start: time.Since(t.epoch)})
	return len(t.spans)
}

func (t *tracer) end(id int) time.Duration {
	now := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.End = now
	return s.End - s.Start
}

// timed runs f inside a span and returns its duration in seconds.
func (t *tracer) timed(name string, parent int, f func()) float64 {
	id := t.begin(name, parent)
	f()
	return t.end(id).Seconds()
}

// selfTimes sums, per span name, each span's duration minus the part
// of that interval its child spans cover. Children may run
// concurrently, so covered time is the length of their union.
func selfTimes(spans []Span) map[string]time.Duration {
	kids := map[int][]Span{}
	for _, s := range spans {
		kids[s.Parent] = append(kids[s.Parent], s)
	}
	out := map[string]time.Duration{}
	for _, s := range spans {
		cs := kids[s.ID]
		sort.Slice(cs, func(i, j int) bool { return cs[i].Start < cs[j].Start })
		covered, edge := time.Duration(0), s.Start
		for _, c := range cs {
			lo, hi := c.Start, c.End
			if lo < edge {
				lo = edge
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		out[s.Name] += s.End - s.Start - covered
	}
	return out
}

// writeChrome writes the spans in the trace-event format that
// chrome://tracing and ui.perfetto.dev open. Complete ("X") events on
// one tid must nest, so each span takes the lowest lane that is idle
// or whose innermost open span contains it; concurrent spans spread
// over lanes.
func writeChrome(path string, spans []Span) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	order := append([]Span(nil), spans...)
	sort.SliceStable(order, func(i, j int) bool { return order[i].Start < order[j].Start })
	var lanes [][]Span // per lane, the stack of spans still open
	events := make([]event, 0, len(order))
	for _, s := range order {
		lane := -1
		for l, open := range lanes {
			for len(open) > 0 && open[len(open)-1].End <= s.Start {
				open = open[:len(open)-1]
			}
			lanes[l] = open
			if lane < 0 && (len(open) == 0 || s.End <= open[len(open)-1].End) {
				lane = l
			}
		}
		if lane < 0 {
			lanes = append(lanes, nil)
			lane = len(lanes) - 1
		}
		lanes[lane] = append(lanes[lane], s)
		events = append(events, event{
			Name: s.Name, Ph: "X", Pid: 1, Tid: lane + 1,
			Ts:   float64(s.Start.Nanoseconds()) / 1e3,
			Dur:  float64((s.End - s.Start).Nanoseconds()) / 1e3,
			Args: map[string]int{"id": s.ID, "parent": s.Parent, "op": s.Op},
		})
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
