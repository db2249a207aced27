package server

import (
	"sync"

	"dyncg/internal/machine"
)

// Key identifies a machine size class: requests whose (topology family,
// post-rounding PE count, resolved worker count) coincide are served by
// interchangeable machines. PEs is the exact constructed size (use
// dyncg.TopologySize), not the requested minimum, so e.g. a 100-PE and a
// 120-PE hypercube request share the 128-PE class. The worker count
// changes no machine; it splits the pool because the in-process
// pipeline of the dyncgbench module keys its own pool the same way and
// compares whole response bodies, pool.hit included, with the server's.
type Key struct {
	Topo    string
	PEs     int
	Workers int
}

// pooled is one idle machine plus the logical-clock stamp of its last
// check-in (its LRU age).
type pooled struct {
	m    *machine.M
	seen uint64
}

// Pool is a sharded fleet of idle, pre-warmed machines keyed by size
// class. Within a class machines form a stack (most recently used on
// top, so the warmest arena is handed out first); across classes the
// globally least-recently-used machine is evicted when the pool exceeds
// its capacity.
//
// Get and Put are safe for concurrent use and allocation-free in steady
// state — the point of the pool: a warm checkout plus WarmReset leaves
// the machine's scratch arena intact, so the request that follows runs
// its data-movement primitives with zero machine or scratch allocations.
type Pool struct {
	mu        sync.Mutex
	capacity  int
	maxPEs    int
	clock     uint64
	idle      map[Key][]pooled
	n         int
	pes       int
	hits      uint64
	misses    uint64
	evictions uint64
}

// NewPool returns a pool retaining at most capacity idle machines with
// no PE-retention budget (capacity ≤ 0 disables retention: every Put
// discards the machine).
func NewPool(capacity int) *Pool {
	return NewPoolPEs(capacity, 0)
}

// NewPoolPEs is NewPool with a PE-retention budget: the pool retains at
// most maxPEs total PEs across all idle machines (maxPEs ≤ 0 =
// unbounded). The machine-count cap alone is the wrong control at large
// n — 32 idle 2^20-PE machines pin tens of gigabytes of register and
// arena memory — so the budget bounds retained memory by construction
// size, evicting least-recently-used machines first.
func NewPoolPEs(capacity, maxPEs int) *Pool {
	return &Pool{capacity: capacity, maxPEs: maxPEs, idle: make(map[Key][]pooled)}
}

// Get checks the most recently used idle machine of the size class out
// of the pool, WarmReset (counters zeroed, scratch arena kept warm), or
// returns nil on a pool miss — the caller then constructs a machine and
// Puts it back after use, growing the class.
func (p *Pool) Get(key Key) *machine.M {
	p.mu.Lock()
	defer p.mu.Unlock()
	stack := p.idle[key]
	if n := len(stack); n > 0 {
		m := stack[n-1].m
		stack[n-1] = pooled{}
		p.idle[key] = stack[:n-1]
		p.n--
		p.pes -= m.Size()
		p.hits++
		m.WarmReset()
		return m
	}
	p.misses++
	return nil
}

// Put checks a machine in under its size class, detaching any observer
// or fault injector a request attached (pooled machines carry no
// per-request state). When the pool is over capacity the globally
// least-recently-used idle machine is evicted.
func (p *Pool) Put(key Key, m *machine.M) {
	if m == nil {
		return
	}
	m.SetObserver(nil)
	m.SetInjector(nil)
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.capacity <= 0 {
		return
	}
	p.clock++
	p.idle[key] = append(p.idle[key], pooled{m: m, seen: p.clock})
	p.n++
	p.pes += m.Size()
	for p.n > p.capacity {
		p.evictOldest()
	}
	// The PE budget can evict the just-inserted machine itself: a single
	// over-budget machine (e.g. a one-off 2^20-PE request) is not worth
	// pinning the memory of an entire warm fleet.
	for p.maxPEs > 0 && p.pes > p.maxPEs && p.n > 0 {
		p.evictOldest()
	}
}

// evictOldest drops the least-recently-checked-in machine across every
// class. Stacks are pushed in clock order, so each class's oldest entry
// sits at index 0 and the scan is one comparison per class.
func (p *Pool) evictOldest() {
	var victim Key
	oldest, found := ^uint64(0), false
	for k, stack := range p.idle {
		if len(stack) > 0 && stack[0].seen < oldest {
			oldest, victim, found = stack[0].seen, k, true
		}
	}
	if !found {
		return
	}
	stack := p.idle[victim]
	p.pes -= stack[0].m.Size()
	copy(stack, stack[1:])
	stack[len(stack)-1] = pooled{}
	p.idle[victim] = stack[:len(stack)-1]
	p.n--
	p.evictions++
}

// PoolStats is a snapshot of the pool's counters. IdlePEs is the total
// PE count across idle machines — the quantity the PE-retention budget
// bounds.
type PoolStats struct {
	Hits, Misses, Evictions uint64
	Idle                    int
	IdlePEs                 int
}

// Stats returns a snapshot of the pool's counters.
func (p *Pool) Stats() PoolStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return PoolStats{Hits: p.hits, Misses: p.misses, Evictions: p.evictions, Idle: p.n, IdlePEs: p.pes}
}

// IdleIn returns the number of idle machines in one size class.
func (p *Pool) IdleIn(key Key) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.idle[key])
}

// Flush discards every idle machine and returns how many were dropped
// (used by tests and cold-path benchmarks; counters are preserved).
func (p *Pool) Flush() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	dropped := p.n
	p.idle = make(map[Key][]pooled)
	p.n = 0
	p.pes = 0
	return dropped
}
