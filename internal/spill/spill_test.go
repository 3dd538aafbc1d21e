package spill

import (
	"bytes"
	"context"
	"testing"

	"repro/internal/checkers"
	"repro/internal/core"
	"repro/internal/metal"
	"repro/internal/prog"
)

// exportedSummaries runs the free checker over a small program and
// exports every function's summaries — real edge data, not a
// hand-built fixture.
func exportedSummaries(t *testing.T) *core.SummaryData {
	t.Helper()
	src := `
void kfree(void *p);
int helper(int *p) { kfree(p); return 0; }
int root(int *p, int x) {
    if (x) { helper(p); return *p; }
    kfree(p);
    return *p;
}`
	p, err := prog.BuildSource(map[string]string{"s.c": src})
	if err != nil {
		t.Fatal(err)
	}
	c, err := metal.Parse(checkers.Free)
	if err != nil {
		t.Fatal(err)
	}
	en := core.NewEngine(p, c, core.DefaultOptions())
	en.RunContext(context.Background())
	sd := en.ExportSummaries(p.All)
	if len(sd.Funcs) == 0 {
		t.Fatal("engine exported no summaries; workload regressed")
	}
	return sd
}

// The codec must be a byte-level fixed point: encode∘decode∘encode
// yields the original bytes.
func TestRoundTripFixedPoint(t *testing.T) {
	sd := exportedSummaries(t)
	first, err := Encode(sd)
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := Decode(first)
	if err != nil {
		t.Fatal(err)
	}
	second, err := Encode(decoded)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, second) {
		t.Fatalf("encode∘decode∘encode is not a fixed point:\n first: %s\nsecond: %s", first, second)
	}
}
