package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func TestSelfTimes(t *testing.T) {
	ms := time.Millisecond
	spans := []Span{
		{ID: 1, Name: "run", Start: 0, End: 100 * ms},
		{ID: 2, Parent: 1, Name: "parse", Start: 10 * ms, End: 30 * ms},
		// Two concurrent engines: their union covers 40..90.
		{ID: 3, Parent: 1, Name: "engine", Start: 40 * ms, End: 80 * ms},
		{ID: 4, Parent: 1, Name: "engine", Start: 50 * ms, End: 90 * ms},
		{ID: 5, Parent: 3, Name: "store", Start: 45 * ms, End: 55 * ms},
		// A child that outlives its parent counts only inside it.
		{ID: 6, Parent: 2, Name: "late", Start: 25 * ms, End: 35 * ms},
	}
	got := selfTimes(spans)
	want := map[string]time.Duration{
		"run":    30 * ms, // 100 - (20 + 50)
		"parse":  15 * ms, // 20 - 5
		"engine": 70 * ms, // (40 - 10) + 40
		"store":  10 * ms,
		"late":   10 * ms,
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("self time of %s = %v, want %v", name, got[name], w)
		}
	}
}

func TestWriteChromeNests(t *testing.T) {
	ms := time.Millisecond
	path := filepath.Join(t.TempDir(), "trace.json")
	spans := []Span{
		{ID: 1, Name: "op", Start: 0, End: 10 * ms},
		{ID: 2, Parent: 1, Name: "a", Start: 1 * ms, End: 6 * ms},
		{ID: 3, Parent: 1, Name: "b", Start: 2 * ms, End: 8 * ms}, // overlaps a
		{ID: 4, Parent: 1, Name: "c", Start: 9 * ms, End: 10 * ms},
	}
	if err := writeChrome(path, spans); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string
			Tid  int
			Ts   float64
			Dur  float64
		}
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	tid := map[string]int{}
	for _, e := range doc.TraceEvents {
		tid[e.Name] = e.Tid
	}
	if len(doc.TraceEvents) != 4 || tid["a"] != tid["op"] || tid["b"] == tid["a"] || tid["c"] != tid["op"] {
		t.Errorf("lanes %v: a and c nest under op, b overlaps a and needs its own", tid)
	}
}
