package machine

// This file implements the per-machine scratch arena: a typed,
// generation-stamped pool of recyclable scratch slices. Every data
// movement primitive of colops.go needs O(n) scratch per call (shift
// targets, flood copies, compaction ranks, routing source/destination
// lists); before the arena each call allocated them fresh, so one
// Table-2/3 run performed thousands of O(n) heap allocations that
// dominated simulator wall-clock. The arena hands the
// same few buffers back out call after call, making the steady-state
// hot paths allocation-free (see bench_perf_test.go and the
// AllocsPerRun assertions in alloc_test.go).
//
// Design:
//
//   - One free list per element type, keyed by reflect.Type and created
//     on first use, so the one arena serves the value column of a
//     colstore.File for every T the generic op layer is instantiated
//     at, plus []bool occupancy columns, []int, and any caller-side
//     element type (penvelope's piece buffers).
//
//   - Buffers are generation-stamped: every parked buffer records the
//     arena generation at Put time, and M.Reset() starts a new
//     generation. A Get never revives a buffer parked in an earlier
//     generation — stale entries are dropped to the garbage collector
//     instead — so a long-lived machine cannot pin peak-sized scratch
//     from a previous run across the Reset boundary, and run-to-run
//     memory behaviour stays reproducible.
//
//   - GetScratch returns buffers zeroed to length n, so a converted
//     call site behaves exactly like the make([]E, n) it replaced.
//
// Ownership contract: the arena belongs to the machine's owning
// goroutine, like the Stats counters (see the concurrency contract on
// M). Get/Put only ever run on that goroutine — the sharded worker
// loops of internal/par never touch the arena; every primitive acquires
// and releases its scratch outside par.ForEach/par.Reduce bodies. Put
// hands ownership of the buffer to the arena: callers must not retain
// (or double-Put) a released slice, and must only Put buffers they own
// outright — never a caller-supplied register file.

import "reflect"

// arenaMaxFree bounds each per-type free list. Primitives hold at most
// a handful of scratch buffers at once (Compact's and Route's four are
// the current peak); a few extra slots absorb nested callers (penvelope keeps piece
// buffers checked out across whole merge levels) without letting an
// unbalanced caller grow the pool without bound.
const arenaMaxFree = 16

// arena is the scratch-buffer pool hung off every M.
type arena struct {
	gen   uint64
	pools map[reflect.Type]any // *pool[E], keyed by reflect.TypeOf((*E)(nil))
}

// pool is the free list for one element type.
type pool[E any] struct {
	free []parked[E]
}

// parked is one recyclable buffer plus the generation it was parked in.
type parked[E any] struct {
	buf []E
	gen uint64
}

// poolOf returns (creating on first use) the free list for element type
// E. The nil-*E key is packed directly into the interface, so the
// lookup itself does not allocate.
func poolOf[E any](m *M) *pool[E] {
	key := reflect.TypeOf((*E)(nil))
	if p, ok := m.scr.pools[key]; ok {
		return p.(*pool[E])
	}
	p := &pool[E]{}
	m.scr.pools[key] = p
	return p
}

// GetScratch returns a zeroed scratch slice of length n from m's arena,
// reusing a previously released buffer when one of sufficient capacity
// from the current generation is parked. The slice is owned by the
// caller until released with PutScratch (releasing is optional — an
// unreleased buffer is simply collected by the GC, which is the right
// thing for results that escape to the caller, like ShiftWithinCols').
func GetScratch[E any](m *M, n int) []E {
	p := poolOf[E](m)
	for k := len(p.free) - 1; k >= 0; k-- {
		e := p.free[k]
		if e.gen != m.scr.gen {
			// Parked before the last Reset — and entries park in
			// generation order, so positions 0..k are all stale. Drop
			// them, keep the already-scanned current-generation tail,
			// and stop.
			kept := copy(p.free, p.free[k+1:])
			p.free = p.free[:kept]
			break
		}
		if cap(e.buf) < n {
			continue
		}
		// Remove entry k, preserving the generation-ordered prefix.
		copy(p.free[k:], p.free[k+1:])
		p.free = p.free[:len(p.free)-1]
		s := e.buf[:n]
		clear(s)
		return s
	}
	return make([]E, n)
}

// PutScratch releases a buffer back to m's arena for reuse by a later
// GetScratch of the same element type. The caller must own the buffer
// (obtained from GetScratch, or freshly allocated) and must not use it
// again after the call. Zero-capacity and overflow buffers are dropped.
func PutScratch[E any](m *M, s []E) {
	if cap(s) == 0 {
		return
	}
	p := poolOf[E](m)
	if len(p.free) >= arenaMaxFree {
		return
	}
	p.free = append(p.free, parked[E]{buf: s[:0], gen: m.scr.gen})
}

// ScratchGeneration returns the arena's current generation — it
// advances on every Reset. Exposed for tests and debugging.
func (m *M) ScratchGeneration() uint64 { return m.scr.gen }
