package profiling

import (
	"os"
	"runtime"
	"strconv"
	"strings"
)

// PeakRSS returns the process's peak resident set size in bytes. On
// Linux it reads VmHWM from /proc/self/status — the kernel's
// high-water mark for the whole process lifetime, which is the
// peak_rss_mb the benchmark records per workload process. On
// other platforms (or a sandboxed /proc) it falls back to the Go
// runtime's total OS reservation (MemStats.Sys), an upper bound on the
// Go heap's footprint that still trends with real residency.
func PeakRSS() int64 {
	if n, ok := vmHWM(); ok {
		return n
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.Sys)
}

// vmHWM parses the "VmHWM:   12345 kB" line of /proc/self/status.
func vmHWM() (int64, bool) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, false
	}
	for _, line := range strings.Split(string(data), "\n") {
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line[len("VmHWM:"):])
		if len(fields) == 0 {
			return 0, false
		}
		kb, err := strconv.ParseInt(fields[0], 10, 64)
		if err != nil {
			return 0, false
		}
		return kb * 1024, true
	}
	return 0, false
}
