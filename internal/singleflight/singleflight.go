// Package singleflight coalesces concurrent duplicate work: all
// callers that ask for the same key while a computation is in flight
// share its one result instead of redoing it. Its one user is
// /v1/analyze request coalescing (DESIGN.md §15.3).
//
// Unlike the classic library shape, the in-flight computation runs
// under a call-scoped context owned by the group, not the leader's
// request context: the computation is cancelled only when every caller
// waiting on it has given up. A leader whose client disconnects does
// not kill the run for the followers that coalesced onto it — and a
// sole caller keeps today's behaviour (its departure cancels the
// work).
package singleflight

import (
	"context"
	"sync"
)

// call is one in-flight computation.
type call[T any] struct {
	ctx     context.Context
	cancel  context.CancelFunc
	done    chan struct{}
	val     T
	waiters int // callers not yet departed; 0 cancels ctx
}

// Group coalesces calls by key. The zero value is ready to use.
type Group[T any] struct {
	mu sync.Mutex
	m  map[string]*call[T]
}

// Do runs fn under key, coalescing with any in-flight call for the
// same key. The leader (the caller that found no call in flight) runs
// fn synchronously under the call's own context; followers block until
// the leader finishes and share its value. Do returns the shared
// value, whether this caller was a follower, and an error only when
// the caller's own ctx expired before the result arrived.
//
// fn receives the call-scoped context: it is cancelled when the last
// interested caller departs (so an abandoned computation stops), and
// is otherwise independent of any single caller's deadline.
func (g *Group[T]) Do(ctx context.Context, key string, fn func(context.Context) T) (T, bool, error) {
	g.mu.Lock()
	if g.m == nil {
		g.m = map[string]*call[T]{}
	}
	if c, ok := g.m[key]; ok {
		// Follower: join the in-flight call.
		c.waiters++
		g.mu.Unlock()
		select {
		case <-c.done:
			return c.val, true, nil
		case <-ctx.Done():
			g.leave(key, c)
			var zero T
			return zero, true, ctx.Err()
		}
	}
	cctx, cancel := context.WithCancel(context.Background())
	c := &call[T]{ctx: cctx, cancel: cancel, done: make(chan struct{}), waiters: 1}
	g.m[key] = c
	g.mu.Unlock()

	// The leader's own departure mid-run (client disconnect) must
	// count like any follower's: watch its ctx until the call ends.
	watchDone := make(chan struct{})
	go func() {
		select {
		case <-ctx.Done():
			g.leave(key, c)
		case <-watchDone:
		}
	}()

	c.val = fn(cctx)
	close(watchDone)

	g.mu.Lock()
	// Only delete the live entry if it is still ours (leave may have
	// already dropped it when the last waiter departed).
	if g.m[key] == c {
		delete(g.m, key)
	}
	g.mu.Unlock()
	c.cancel()
	close(c.done)
	return c.val, false, nil
}

// Waiters reports how many callers are attached to the in-flight call
// for key (0 when none is in flight). Tests use it to deterministically
// wait for followers to pile onto a held leader.
func (g *Group[T]) Waiters(key string) int {
	g.mu.Lock()
	defer g.mu.Unlock()
	if c, ok := g.m[key]; ok {
		return c.waiters
	}
	return 0
}

// leave records one caller's departure; the last departure cancels the
// call's context so an abandoned computation can stop at its next
// cancellation poll.
func (g *Group[T]) leave(key string, c *call[T]) {
	g.mu.Lock()
	c.waiters--
	last := c.waiters == 0
	if last && g.m[key] == c {
		delete(g.m, key)
	}
	g.mu.Unlock()
	if last {
		c.cancel()
	}
}
