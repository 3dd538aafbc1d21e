package paper

import (
	"fmt"
	"os"
	"strings"
	"testing"
	"time"
)

// TestPaperArtifactsGolden: every experiment, printed as `mcbench -exp
// all` prints it but with the clock stopped, equals
// testdata/paper.golden, so every line but the durations is pinned. A
// change that moves a cell re-takes the golden and puts the diff in
// CHANGES.md.
func TestPaperArtifactsGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/paper.golden")
	if err != nil {
		t.Fatal(err)
	}
	defer func(clock func(time.Time) time.Duration) { since = clock }(since)
	since = func(time.Time) time.Duration { return 0 }
	var sb strings.Builder
	for _, e := range Experiments {
		fmt.Fprintf(&sb, "==== %s: %s ====\n", strings.ToUpper(e.ID), e.Desc)
		e.Run(&sb)
		sb.WriteString("\n")
	}
	if got := sb.String(); got != string(want) {
		t.Errorf("the paper's artifacts differ from testdata/paper.golden; got:\n%s", got)
	}
}
