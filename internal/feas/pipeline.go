package feas

// The asynchronous verdict pipeline behind xgccd (DESIGN.md §13).
// Analysis responses return immediately with every report marked
// "unverified"; a bounded worker pool drains a FIFO queue, computes
// verdicts (pure functions of report content), and hands each result
// to the configured sink. Because evaluation is pure, outcomes are
// content-address cached: warm runs replay verdicts without
// re-evaluating.

import (
	"encoding/json"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/cache"
	"repro/internal/report"
)

// feasFormat versions the verdict cache entries; bump when Outcome's
// serialized form or the evaluator's semantics change.
const feasFormat = "feas-v1"

// latSample caps the latency ring buffer used for percentiles.
const latSample = 4096

// Config configures a Pipeline.
type Config struct {
	// Workers is the pool size; 0 means 1.
	Workers int
	// MaxSteps caps the path events one verdict replays (Evaluate);
	// 0 means DefaultMaxSteps.
	MaxSteps int
	// Store, when non-nil, caches outcomes by report content hash.
	Store cache.Store
	// Sink receives each finished verdict, called from worker
	// goroutines; it must do its own locking.
	Sink func(r *report.Report, o Outcome)
}

// Stats is a point-in-time snapshot of pipeline counters.
type Stats struct {
	Depth      int   `json:"depth"`
	Enqueued   int64 `json:"enqueued"`
	Done       int64 `json:"done"`
	Confirmed  int64 `json:"confirmed"`
	Infeasible int64 `json:"infeasible"`
	Unknown    int64 `json:"unknown"`
	CacheHits  int64 `json:"cache_hits"`
	// Verdict latency (enqueue to sink), microseconds, over a capped
	// sample of recent verdicts.
	P50Micros int64 `json:"p50_us"`
	P95Micros int64 `json:"p95_us"`
}

type qitem struct {
	r  *report.Report
	at time.Time
}

// Pipeline is a FIFO verdict queue with a bounded worker pool.
type Pipeline struct {
	cfg  Config
	mu   sync.Mutex
	cond *sync.Cond
	wg   sync.WaitGroup

	queue    []qitem
	inflight int
	closed   bool

	enqueued, done              int64
	confirmed, infeasible, unkn int64
	cacheHits                   int64
	lat                         []time.Duration
	latNext                     int
}

// NewPipeline starts the worker pool.
func NewPipeline(cfg Config) *Pipeline {
	if cfg.Workers <= 0 {
		cfg.Workers = 1
	}
	p := &Pipeline{cfg: cfg}
	p.cond = sync.NewCond(&p.mu)
	for i := 0; i < cfg.Workers; i++ {
		p.wg.Add(1)
		go p.worker()
	}
	return p
}

// Enqueue queues a report for verdict computation. It reports false
// after Close.
func (p *Pipeline) Enqueue(r *report.Report) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return false
	}
	p.queue = append(p.queue, qitem{r: r, at: time.Now()})
	p.enqueued++
	p.cond.Signal()
	return true
}

// Drain blocks until every queued report has a verdict.
func (p *Pipeline) Drain() {
	p.mu.Lock()
	defer p.mu.Unlock()
	for len(p.queue) > 0 || p.inflight > 0 {
		p.cond.Wait()
	}
}

// Close stops accepting work, waits for in-flight verdicts, and shuts
// the workers down.
func (p *Pipeline) Close() {
	p.mu.Lock()
	p.closed = true
	p.cond.Broadcast()
	p.mu.Unlock()
	p.wg.Wait()
}

// Stats snapshots the counters.
func (p *Pipeline) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	s := Stats{
		Depth:      len(p.queue) + p.inflight,
		Enqueued:   p.enqueued,
		Done:       p.done,
		Confirmed:  p.confirmed,
		Infeasible: p.infeasible,
		Unknown:    p.unkn,
		CacheHits:  p.cacheHits,
	}
	s.P50Micros, s.P95Micros = percentiles(p.lat)
	return s
}

func percentiles(sample []time.Duration) (p50, p95 int64) {
	if len(sample) == 0 {
		return 0, 0
	}
	sorted := append([]time.Duration(nil), sample...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	at := func(q float64) int64 {
		i := int(q * float64(len(sorted)-1))
		return sorted[i].Microseconds()
	}
	return at(0.50), at(0.95)
}

func (p *Pipeline) worker() {
	defer p.wg.Done()
	for {
		p.mu.Lock()
		for len(p.queue) == 0 && !p.closed {
			p.cond.Wait()
		}
		if len(p.queue) == 0 && p.closed {
			p.mu.Unlock()
			return
		}
		it := p.queue[0]
		p.queue = p.queue[1:]
		p.inflight++
		p.mu.Unlock()

		o, hit := p.verdict(it.r)
		if p.cfg.Sink != nil {
			p.cfg.Sink(it.r, o)
		}

		p.mu.Lock()
		p.inflight--
		p.done++
		if hit {
			p.cacheHits++
		}
		switch o.Verdict {
		case report.VerdictConfirmed:
			p.confirmed++
		case report.VerdictInfeasible:
			p.infeasible++
		default:
			p.unkn++
		}
		d := time.Since(it.at)
		if len(p.lat) < latSample {
			p.lat = append(p.lat, d)
		} else {
			p.lat[p.latNext] = d
			p.latNext = (p.latNext + 1) % latSample
		}
		if len(p.queue) == 0 && p.inflight == 0 {
			p.cond.Broadcast() // wake Drain
		}
		p.mu.Unlock()
	}
}

// verdict computes (or replays) one outcome; hit reports a cache hit.
func (p *Pipeline) verdict(r *report.Report) (Outcome, bool) {
	if p.cfg.Store == nil {
		return Evaluate(r, p.cfg.MaxSteps), false
	}
	key := VerdictKey(r)
	if data, ok := p.cfg.Store.Get(key); ok {
		var o Outcome
		if json.Unmarshal(data, &o) == nil && o.Verdict != "" {
			return o, true
		}
	}
	o := Evaluate(r, p.cfg.MaxSteps)
	if data, err := json.Marshal(o); err == nil {
		_ = p.cfg.Store.Put(key, data)
	}
	return o, false
}

// VerdictKey content-addresses a report's verdict: everything the
// evaluator reads is folded in, so an edit that changes the witness
// path (or the multi-path bit) changes the key.
func VerdictKey(r *report.Report) string {
	path, _ := json.Marshal(r.Path)
	return cache.Key("feas", feasFormat,
		r.Checker, r.Rule, r.Msg, r.Pos.String(), r.Func,
		strconv.FormatBool(r.MultiPath), string(path))
}

// Annotate runs the pass synchronously: it enqueues every report,
// waits for all verdicts, writes them into the reports, and returns
// the counters. This is the CLI path (xgcc -verify); the daemon keeps
// a long-lived Pipeline instead. Any Sink in cfg is replaced.
func Annotate(reports []*report.Report, cfg Config) Stats {
	var mu sync.Mutex
	cfg.Sink = func(r *report.Report, o Outcome) {
		mu.Lock()
		r.Verdict = o.Verdict
		r.VerdictWhy = o.Why
		mu.Unlock()
	}
	p := NewPipeline(cfg)
	for _, r := range reports {
		p.Enqueue(r)
	}
	p.Drain()
	st := p.Stats()
	p.Close()
	return st
}
