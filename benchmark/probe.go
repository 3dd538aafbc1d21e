package main

import (
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cache"
	"repro/internal/fleet"
	"repro/mc"
)

// probe holds a traced run's instruments: the store wrapper, the HTTP
// middleware and the whole-run span. Workloads call it unconditionally;
// a nil probe (untraced run) hands everything back unwrapped. In a
// traced run the wrappers are installed at set-up but pass straight
// through until the traced op switches them on, so the untraced ops
// the tracing overhead is measured against stay unobserved.
type probe struct {
	tr *tracer
	on atomic.Bool
	// parent is the span in-situ spans attach to: the traced op.
	parent int
	// store is the most recently installed store wrapper.
	store *timingStore
	http  map[string]*httpStats
	coord fleet.Stats
	// runSeconds is the traced op's mc.RunContext span.
	runSeconds float64
	// workDir is scratch space inside the checkout.
	workDir string
}

func newProbe(workDir string) *probe {
	return &probe{tr: newTracer(), http: map[string]*httpStats{}, workDir: workDir}
}

// reset clears what the previous traced op left in the instruments.
func (p *probe) reset(op int) {
	p.tr.op = op
	p.coord, p.runSeconds = fleet.Stats{}, 0
	for name := range p.http {
		*p.http[name] = httpStats{}
	}
	if st := p.store; st != nil {
		*st = timingStore{inner: st.inner, p: p, gotBlobs: map[string][]byte{}, putBlobs: map[string][]byte{}}
	}
}

func (p *probe) begin(name string) int {
	if p == nil || !p.on.Load() {
		return 0
	}
	return p.tr.begin(name, p.parent)
}

func (p *probe) end(id int) time.Duration {
	if id == 0 {
		return 0
	}
	return p.tr.end(id)
}

// analyze builds a fresh analyzer and runs it to the end, under an
// "mc.run" span when tracing.
func (p *probe) analyze(srcs map[string]string, cfg mc.RunConfig) (*mc.Result, error) {
	a, err := newAnalyzer(srcs, cfg)
	if err != nil {
		return nil, err
	}
	id := p.begin("mc.run")
	res, err := runToEnd(a)
	if d := p.end(id); id != 0 {
		p.runSeconds = d.Seconds()
	}
	return res, err
}

func (p *probe) wrapStore(s cache.Store) cache.Store {
	if p == nil {
		return s
	}
	p.store = &timingStore{inner: s, p: p, gotBlobs: map[string][]byte{}, putBlobs: map[string][]byte{}}
	return p.store
}

func (p *probe) noteFleet(st fleet.Stats) {
	if p != nil && p.on.Load() {
		p.coord = st
	}
}

// httpStats is what the middleware around one handler saw.
type httpStats struct {
	mu        sync.Mutex
	requests  int64
	non200    int64
	busy      time.Duration
	reqBytes  int64
	respBytes int64
}

// wrapHandler puts a span and byte counters around every request h
// serves, filed under name.
func (p *probe) wrapHandler(name string, h http.Handler) http.Handler {
	if p == nil {
		return h
	}
	st := &httpStats{}
	p.http[name] = st
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !p.on.Load() {
			h.ServeHTTP(w, r)
			return
		}
		cw := &countingWriter{ResponseWriter: w, status: http.StatusOK}
		id := p.begin(name + ".handler")
		h.ServeHTTP(cw, r)
		d := p.end(id)
		st.mu.Lock()
		defer st.mu.Unlock()
		st.requests++
		st.busy += d
		if r.ContentLength > 0 {
			st.reqBytes += r.ContentLength
		}
		st.respBytes += cw.n
		if cw.status != http.StatusOK {
			st.non200++
		}
	})
}

type countingWriter struct {
	http.ResponseWriter
	status int
	n      int64
}

func (w *countingWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *countingWriter) Write(b []byte) (int, error) {
	n, err := w.ResponseWriter.Write(b)
	w.n += int64(n)
	return n, err
}
