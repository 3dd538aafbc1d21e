package main

// The host's pace, measured beside everything that is timed.

import (
	"runtime/debug"
	"sync"
	"time"
)

// refSample is one run of the reference work: its wall clock and the
// process's user+sys CPU seconds over it.
type refSample struct{ wall, cpu float64 }

// referenceWork times a fixed piece of work shaped like the analyzer's
// (one goroutine per job filling maps of slices, from a collected
// heap): one reference sample.
//
// The hosts this runs on are small VMs whose memory system is shared
// with neighbours. With identical inputs the same op slows by 20–70 %
// for seconds to hours at a time, user CPU seconds included,
// while a pure arithmetic loop keeps its pace; medians of measured
// seconds followed the host further than any bound allows. This work
// slows with the analyzer, so every timed interval is bracketed by two
// reference samples and reported in seconds at reference speed:
// measured seconds times the quiet host's sample over the mean of its
// two samples (see atReference). Wall clock is scaled by the samples'
// wall clock and CPU seconds by their CPU seconds: when the hypervisor
// withholds a core the wall clock of both stretches and CPU seconds of
// neither do. The work is the benchmark's own: a change to the program
// cannot move it, and a regression shows in full.
//
// It starts from a collected heap handed back to the OS, or a
// collection of the last op's garbage lands inside the sample; the op
// that follows starts from that heap too.
func referenceWork() refSample {
	debug.FreeOSMemory()
	c0 := cpuSeconds()
	t0 := time.Now()
	var wg sync.WaitGroup
	for g := 0; g < jobs; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 12; round++ {
				m := map[int][]int{}
				x := 12345
				for i := 0; i < 40000; i++ {
					x = x*1103515245 + 12345
					k := (x >> 8) & 0xffff
					m[k] = append(m[k], i)
				}
			}
		}()
	}
	wg.Wait()
	return refSample{wall: time.Since(t0).Seconds(), cpu: cpuSeconds() - c0}
}

// host takes one run's reference samples and keeps timed intervals out
// of the bursts in which the hypervisor withholds cores (about a minute,
// about once an hour on the sizing host): wall clock stretches by a
// third there, by different amounts for the reference work and an op,
// and three runs in a row came out 15–30 % low.
type host struct {
	// best is the largest number of cores a sample got so far; quiet,
	// it is 1.7–1.9 of the two.
	best float64
	// waited is how long the run's one wait took; zero before it.
	waited time.Duration
}

const (
	// starvedShare: a sample that got less than this share of best
	// was starved. Quiet samples stay above 0.9 of it.
	starvedShare = 0.85
	// maxWait bounds the one wait of a run.
	maxWait = 60 * time.Second
)

// starved notes how many cores the sample got and reports whether that
// is markedly fewer than the best so far. It compares within the run,
// so a host that always has one core to give starves nothing.
func (h *host) starved(s refSample) bool {
	cores := s.cpu / s.wall
	if cores > h.best {
		h.best = cores
	}
	return cores < starvedShare*h.best
}

// calibrate takes a reference sample. If it finds the host starved it
// waits, once per run and for at most maxWait, until a sample says
// otherwise; an op timed meanwhile would measure the host.
func (h *host) calibrate() refSample {
	s := referenceWork()
	if !h.starved(s) || h.waited > 0 {
		return s
	}
	start := time.Now()
	for h.starved(s) && time.Since(start) < maxWait {
		time.Sleep(500 * time.Millisecond)
		s = referenceWork()
	}
	h.waited = time.Since(start)
	return s
}

// calRef is what the reference work takes on the sizing host (2 cores,
// go1.24) when its neighbours are quiet; host speed 1.00 is that.
var calRef = refSample{wall: 0.10, cpu: 0.185}

// atReference converts measured seconds to seconds at reference speed.
// Interval i ran between the reference samples refs[i] and refs[i+1],
// which take quiet seconds on the quiet host.
func atReference(seconds, refs []float64, quiet float64) []float64 {
	out := make([]float64, len(seconds))
	for i, s := range seconds {
		out[i] = s * quiet / ((refs[i] + refs[i+1]) / 2)
	}
	return out
}
