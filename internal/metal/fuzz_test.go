package metal_test

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/checkers"
	"repro/internal/metal"
)

// FuzzMetalParse feeds checker text to metal.Parse, seeded from every
// bundled checker and metalc's golden listings: no input panics it,
// and a checker that parses parses again from its Source to the same
// String().
func FuzzMetalParse(f *testing.F) {
	for _, s := range checkers.All() {
		f.Add(s.Text)
	}
	paths, err := filepath.Glob("../../testdata/metalc/*.txt")
	if err != nil || len(paths) == 0 {
		f.Fatalf("testdata/metalc: no listings (%v)", err)
	}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(data))
	}
	f.Fuzz(func(t *testing.T, src string) {
		c, err := metal.Parse(src)
		if err != nil {
			return
		}
		again, err := metal.Parse(c.Source)
		if err != nil {
			t.Fatalf("re-parsing Source: %v", err)
		}
		if again.String() != c.String() {
			t.Fatalf("re-parse renders differently:\n%s\n---\n%s", c, again)
		}
	})
}
