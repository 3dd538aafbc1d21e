// Package profiling wires the standard pprof profiles into xgcc
// (-cpuprofile / -memprofile), so main defers one stop handle instead
// of the start/stop/write choreography, and reads the process's peak
// resident set for the benchmark harness.
package profiling

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// Start begins CPU profiling into cpuPath when non-empty and returns a
// stop function that finishes the profile and then, when memPath is
// non-empty, writes an allocs-included heap profile. The stop function
// is idempotent — callers both defer it and invoke it on explicit
// os.Exit paths (which skip defers) — and with both paths empty it is
// a no-op.
func Start(cpuPath, memPath string) (func(), error) {
	var cpuFile *os.File
	if cpuPath != "" {
		f, err := os.Create(cpuPath)
		if err != nil {
			return nil, fmt.Errorf("cpuprofile: %w", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, fmt.Errorf("cpuprofile: %w", err)
		}
		cpuFile = f
	}
	stopped := false
	stop := func() {
		if stopped {
			return
		}
		stopped = true
		if cpuFile != nil {
			pprof.StopCPUProfile()
			cpuFile.Close()
		}
		if memPath != "" {
			if err := writeHeap(memPath); err != nil {
				fmt.Fprintln(os.Stderr, "memprofile:", err)
			}
		}
	}
	return stop, nil
}

// writeHeap records an up-to-date heap profile (allocation sites
// included) at path.
func writeHeap(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	runtime.GC() // materialize recent frees so inuse numbers are accurate
	return pprof.Lookup("allocs").WriteTo(f, 0)
}
