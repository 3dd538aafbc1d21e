package repro

// The real-C corpus (ROADMAP item 18(a)): the C files of the Go
// distribution this test runs under — Go's cgo runtime, cgo tests and
// test programs — preprocessed by the host's gcc. Nothing is checked
// in: the preprocessed text embeds the host's libc headers, and another
// gcc writes other text, so the test pins floors, not counts.

import (
	"context"
	"fmt"
	"io/fs"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cc"
	"repro/internal/checkers"
	"repro/mc"
)

// realCFloor is how many of the corpus's translation units the front
// end accepted when the test was written (gcc 12.2, Go 1.24: 17 of the
// 79 that preprocess). Raise it when more parse.
const realCFloor = 17

// TestGorootRealC preprocesses every .c file under $(go env GOROOT)
// with gcc -E -P -w, runs the bundled suite over each translation unit
// that preprocesses, and logs per unit whether it parsed, degraded or
// failed, with its functions and reports. On every unit pass 1
// (cc.SkimFile) fails exactly where the whole-file parse does, with its
// message; on every unit the parser accepts it runs
// TestSkimMatchesParse's checks and logs the bodies the skim left to
// the parser. It skips when gcc is absent.
func TestGorootRealC(t *testing.T) {
	gcc, err := exec.LookPath("gcc")
	if err != nil {
		t.Skip("gcc is not installed: the GOROOT corpus needs its preprocessor")
	}
	out, err := exec.Command("go", "env", "GOROOT").Output()
	if err != nil {
		t.Skipf("go env GOROOT: %v", err)
	}
	root := strings.TrimSpace(string(out))
	var paths []string
	filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() && strings.HasSuffix(path, ".c") {
			paths = append(paths, path)
		}
		return nil
	})
	units, accepted, skimmed, eager := 0, 0, 0, 0
	for _, path := range paths {
		src, err := exec.Command(gcc, "-E", "-P", "-w", path).Output()
		if err != nil {
			continue // written for another system
		}
		units++
		name, _ := filepath.Rel(root, path)
		_, skimErr := cc.SkimFile(new(cc.Arena), name, string(src))
		if _, err := cc.ParseFile(name, string(src)); fmt.Sprint(skimErr) != fmt.Sprint(err) {
			t.Errorf("%s: skim reports %v, the whole-file parse %v", name, skimErr, err)
		}
		a := mc.NewAnalyzer()
		a.AddSource(name, string(src))
		for _, c := range checkers.All() {
			if err := a.LoadBundledChecker(c.Name); err != nil {
				t.Fatal(err)
			}
		}
		res, err := a.RunContext(context.Background())
		switch {
		case err != nil:
			first, _, _ := strings.Cut(err.Error(), "\n")
			t.Logf("failed   %s: %s", name, first)
			continue
		case res.Degraded:
			t.Logf("degraded %s: %d functions, %d reports", name, len(res.Program.All), len(res.Reports))
		default:
			t.Logf("parsed   %s: %d functions, %d reports", name, len(res.Program.All), len(res.Reports))
		}
		accepted++
		s, e := checkSkim(t, name, map[string]string{name: string(src)})
		if e > 0 {
			t.Logf("         %s: %d bodies skimmed, %d left to the parser", name, s, e)
		}
		skimmed, eager = skimmed+s, eager+e
	}
	t.Logf("%d of %d translation units accepted: %d bodies skimmed, %d left to the parser", accepted, units, skimmed, eager)
	if accepted < realCFloor {
		t.Errorf("%d of %d translation units accepted, floor %d", accepted, units, realCFloor)
	}
}
