package coalesce

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestSingleCaller: a lone caller is a leader with no followers.
func TestSingleCaller(t *testing.T) {
	g := New[int]()
	v, shared, err := g.Do(context.Background(), "k", func() (int, error) { return 42, nil })
	if err != nil || v != 42 || shared {
		t.Fatalf("Do = (%d, %v, %v), want (42, false, nil)", v, shared, err)
	}
	if g.Merged() != 0 {
		t.Fatalf("Merged = %d, want 0", g.Merged())
	}
}

// TestMergesConcurrentCalls: N concurrent calls with the same key run
// fn exactly once; everyone gets the leader's value; N-1 are merged.
func TestMergesConcurrentCalls(t *testing.T) {
	const n = 16
	g := New[string]()
	var computations atomic.Int64
	gate := make(chan struct{}) // holds the leader inside fn
	inFn := make(chan struct{}) // signals the leader reached fn
	results := make([]string, n)
	shareds := make([]bool, n)
	errs := make([]error, n)

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		results[0], shareds[0], errs[0] = g.Do(context.Background(), "k", func() (string, error) {
			computations.Add(1)
			close(inFn)
			<-gate
			return "answer", nil
		})
	}()
	<-inFn // leader is inside fn; everyone else must merge
	for i := 1; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], shareds[i], errs[i] = g.Do(context.Background(), "k", func() (string, error) {
				computations.Add(1)
				return "wrong-leader", nil
			})
		}(i)
	}
	// Wait for all followers to attach before releasing the leader.
	for g.Merged() < n-1 {
		time.Sleep(time.Millisecond)
	}
	close(gate)
	wg.Wait()

	if c := computations.Load(); c != 1 {
		t.Fatalf("fn ran %d times, want 1", c)
	}
	for i := 0; i < n; i++ {
		if errs[i] != nil || results[i] != "answer" {
			t.Fatalf("caller %d: (%q, %v), want (answer, nil)", i, results[i], errs[i])
		}
		if !shareds[i] {
			t.Errorf("caller %d: shared = false, want true (flight had %d callers)", i, n)
		}
	}
	if m := g.Merged(); m != n-1 {
		t.Fatalf("Merged = %d, want %d", m, n-1)
	}
}

// TestDistinctKeysDoNotMerge: different keys run independent flights.
func TestDistinctKeysDoNotMerge(t *testing.T) {
	g := New[int]()
	var computations atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, _, err := g.Do(context.Background(), fmt.Sprintf("k%d", i), func() (int, error) {
				computations.Add(1)
				time.Sleep(5 * time.Millisecond)
				return i, nil
			})
			if err != nil || v != i {
				t.Errorf("key k%d: (%d, %v)", i, v, err)
			}
		}(i)
	}
	wg.Wait()
	if c := computations.Load(); c != 8 {
		t.Fatalf("computations = %d, want 8", c)
	}
	if g.Merged() != 0 {
		t.Fatalf("Merged = %d, want 0", g.Merged())
	}
}

// TestErrorFansOut: the leader's error reaches every follower.
func TestErrorFansOut(t *testing.T) {
	g := New[int]()
	boom := errors.New("boom")
	gate := make(chan struct{})
	inFn := make(chan struct{})
	go g.Do(context.Background(), "k", func() (int, error) {
		close(inFn)
		<-gate
		return 0, boom
	})
	<-inFn
	done := make(chan error, 1)
	go func() {
		_, shared, err := g.Do(context.Background(), "k", func() (int, error) {
			t.Error("follower ran fn")
			return 0, nil
		})
		if !shared {
			t.Error("follower shared = false")
		}
		done <- err
	}()
	for g.Merged() < 1 {
		time.Sleep(time.Millisecond)
	}
	close(gate)
	if err := <-done; !errors.Is(err, boom) {
		t.Fatalf("follower err = %v, want boom", err)
	}
}

// TestFollowerContextExpiry: a follower whose context expires unblocks
// with ctx.Err() while the leader keeps running for itself.
func TestFollowerContextExpiry(t *testing.T) {
	g := New[int]()
	gate := make(chan struct{})
	inFn := make(chan struct{})
	leaderDone := make(chan int, 1)
	go func() {
		v, _, _ := g.Do(context.Background(), "k", func() (int, error) {
			close(inFn)
			<-gate
			return 7, nil
		})
		leaderDone <- v
	}()
	<-inFn
	ctx, cancel := context.WithCancel(context.Background())
	followerDone := make(chan error, 1)
	go func() {
		_, _, err := g.Do(ctx, "k", func() (int, error) { return 0, nil })
		followerDone <- err
	}()
	for g.Merged() < 1 {
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-followerDone; !errors.Is(err, context.Canceled) {
		t.Fatalf("follower err = %v, want context.Canceled", err)
	}
	close(gate)
	if v := <-leaderDone; v != 7 {
		t.Fatalf("leader v = %d, want 7", v)
	}
}

// TestSequentialCallsRecompute: once a flight settles, the next call
// with the same key computes fresh (retention is the cache's job).
func TestSequentialCallsRecompute(t *testing.T) {
	g := New[int]()
	var computations atomic.Int64
	for i := 0; i < 3; i++ {
		v, shared, err := g.Do(context.Background(), "k", func() (int, error) {
			return int(computations.Add(1)), nil
		})
		if err != nil || shared || v != i+1 {
			t.Fatalf("call %d: (%d, %v, %v)", i, v, shared, err)
		}
	}
}

// TestPanicUnblocksFollowers: a panicking leader must not strand its
// followers on the done channel, and they learn it panicked.
func TestPanicUnblocksFollowers(t *testing.T) {
	g := New[int]()
	gate := make(chan struct{})
	inFn := make(chan struct{})
	leaderPanicked := make(chan any, 1)
	go func() {
		defer func() { leaderPanicked <- recover() }()
		g.Do(context.Background(), "k", func() (int, error) {
			close(inFn)
			<-gate
			panic("kaboom")
		})
	}()
	<-inFn
	followerDone := make(chan error, 1)
	go func() {
		_, _, err := g.Do(context.Background(), "k", func() (int, error) { return 0, nil })
		followerDone <- err
	}()
	for g.Merged() < 1 {
		time.Sleep(time.Millisecond)
	}
	close(gate)
	if p := <-leaderPanicked; p == nil {
		t.Fatal("leader panic did not propagate")
	}
	select {
	case err := <-followerDone:
		if !errors.Is(err, ErrLeaderPanicked) {
			t.Fatalf("follower of a panicked leader got %v, want ErrLeaderPanicked", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("follower stranded after leader panic")
	}
	// The key must be free again.
	v, _, err := g.Do(context.Background(), "k", func() (int, error) { return 9, nil })
	if err != nil || v != 9 {
		t.Fatalf("post-panic Do = (%d, %v)", v, err)
	}
}
