package fleet

// The fleet coordinator is a sharder (DESIGN.md §15), not a scheduler:
// it packs one phase's cache-miss units into one shard per worker,
// posts the shards concurrently, and returns when every post has. A
// shard whose post fails in transport is re-posted once, to the next
// worker; whatever is still unfilled runs locally, which is where it
// ran before the fleet existed. Back-pressure is the daemon's admission
// bound (-max-inflight) in front and each worker's own concurrency
// bound behind.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cache"
	"repro/mc"
)

// Config configures a Coordinator.
type Config struct {
	// Workers lists worker base URLs (e.g. "http://host:7779").
	Workers []string
}

// Coordinator shards unit runs over workers. Create with
// NewCoordinator, wire into an analyzer via RunnerFor, and Close when
// done. Safe for concurrent runs.
type Coordinator struct {
	workers  []string
	client   *http.Client
	maxReply int64 // workerMaxBody; tests shrink it

	dispatched    atomic.Int64
	filled        atomic.Int64
	requeues      atomic.Int64
	refused       atomic.Int64
	localFallback atomic.Int64
	batches       atomic.Int64
}

// NewCoordinator returns a coordinator over the configured workers.
func NewCoordinator(cfg Config) *Coordinator {
	return &Coordinator{
		workers:  cfg.Workers,
		client:   &http.Client{Timeout: 5 * time.Minute},
		maxReply: workerMaxBody,
	}
}

// Close releases the connections kept open to workers.
func (c *Coordinator) Close() { c.client.CloseIdleConnections() }

// Stats snapshots the fleet counters.
func (c *Coordinator) Stats() Stats {
	return Stats{
		Dispatched:    c.dispatched.Load(),
		Filled:        c.filled.Load(),
		Requeues:      c.requeues.Load(),
		Refused:       c.refused.Load(),
		LocalFallback: c.localFallback.Load(),
		Batches:       c.batches.Load(),
		Workers:       len(c.workers),
	}
}

// RunnerFor returns an mc.UnitRunner that shards each run over the
// workers and blocks until every shard is settled: filled in the
// shared store, or given up for local execution. With no workers the
// run is refused whole.
//
// The argument is ignored: the daemon serves one checker set, so there
// is no tenant to schedule by. It stays only because the frozen
// benchmark/workloads.go calls RunnerFor("benchmark"), and it goes with
// ROADMAP 2(b)'s vestiges.
func (c *Coordinator) RunnerFor(string) mc.UnitRunner {
	return func(ctx context.Context, run *mc.UnitRun) error {
		if len(c.workers) == 0 {
			c.refused.Add(int64(len(run.Jobs)))
			return nil
		}
		var wg sync.WaitGroup
		for i, sh := range shard(run, len(c.workers)) {
			if len(sh.Jobs) == 0 {
				continue
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				c.runShard(ctx, i, &sh)
			}()
		}
		wg.Wait()
		return ctx.Err()
	}
}

// shard LPT-packs the run's units into n requests, heaviest unit first
// onto the lightest shard; shard i goes to worker i first.
func shard(run *mc.UnitRun, n int) []mc.UnitRun {
	jobs := append([]mc.UnitJob(nil), run.Jobs...)
	sort.SliceStable(jobs, func(a, b int) bool { return jobs[a].Weight > jobs[b].Weight })
	shards := make([]mc.UnitRun, n)
	for k := range shards {
		shards[k] = *run
		shards[k].Jobs = nil
	}
	load := make([]int, n)
	for _, j := range jobs {
		k := 0
		for i := range load {
			if load[i] < load[k] {
				k = i
			}
		}
		load[k] += j.Weight
		shards[k].Jobs = append(shards[k].Jobs, j)
	}
	return shards
}

// runShard posts one shard and settles its counters. A transport
// failure — worker loss mid-shard included — leaves nothing half-done
// behind: a worker commits complete records only, in one batched write,
// before it answers. So the same body goes once more, to the next
// worker, and whatever is unfilled after that runs locally.
func (c *Coordinator) runShard(ctx context.Context, i int, sh *mc.UnitRun) {
	n := int64(len(sh.Jobs))
	c.dispatched.Add(n)
	body, _ := json.Marshal(sh) // strings and ints: Marshal cannot fail
	filled, err := c.post(ctx, c.workers[i], body)
	if err != nil && ctx.Err() == nil {
		c.requeues.Add(1)
		filled, _ = c.post(ctx, c.workers[(i+1)%len(c.workers)], body)
	}
	filled = max(0, min(filled, n)) // whatever the worker claims
	c.filled.Add(filled)
	c.localFallback.Add(n - filled)
}

// post sends one shard to one worker and returns how many keys the
// worker reports filled. Anything but a well-formed 200 within the
// reply bound is a transport failure.
func (c *Coordinator) post(ctx context.Context, url string, body []byte) (int64, error) {
	c.batches.Add(1)
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url+"/v1/work", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("worker %s: HTTP %d", url, resp.StatusCode)
	}
	data, err := cache.ReadCapped(resp.Body, c.maxReply)
	if err != nil {
		return 0, fmt.Errorf("worker %s: %w", url, err)
	}
	var wresp WorkResponse
	if err := json.Unmarshal(data, &wresp); err != nil {
		return 0, err
	}
	return wresp.Filled, nil
}
