// Package machine is the SIMD machine simulator underlying every parallel
// algorithm in this repository. It executes the paper's abstract data
// movement operations (§2.6, Table 1) — semigroup, broadcast, parallel
// prefix, merge, sort, grouping — over an abstract Topology (the mesh of
// §2.2 or the hypercube of §2.3) while charging simulated parallel time.
//
// Cost model. The machines are lock-step SIMD: in one communication round
// every PE exchanges with a partner at some link distance, and the round
// costs the maximum distance over all active pairs (messages follow
// disjoint dimension-ordered/axis-ordered paths for the structured
// patterns used here, so distance, not congestion, is the bottleneck).
// All primitives are built from two patterns:
//
//   - XOR rounds (partner i ⊕ 2^b): bitonic merge and sort;
//   - shift rounds (partner i ± 2^b): prefix, broadcast, semigroup.
//
// Under the paper's proximity (Hilbert) or shuffled-row-major mesh
// indexing a bit-b round costs Θ(2^{b/2}) hops, so a full bitonic sort
// costs Θ(√n) — the mesh-optimal bound of Table 1 (standing in for
// Thompson–Kung; see DESIGN.md). On the Gray-coded hypercube every round
// costs O(1) hops (≤ 2), giving Θ(log n) merges/scans and Θ(log² n) sort.
//
// Local computation is charged per lock-step phase: each primitive phase
// in which every PE performs Θ(1) work adds 1 to LocalSteps, mirroring
// the paper's unit-cost local operations.
package machine

import (
	"fmt"
	"math/bits"
	"reflect"
)

// Topology is the communication structure of a machine: the mesh
// (internal/mesh) or hypercube (internal/hypercube).
type Topology interface {
	Size() int
	Name() string
	// Distance is the link distance between the PEs labelled i and j.
	Distance(i, j int) int
	// Diameter is the communication diameter.
	Diameter() int
}

// Stats accumulates simulated parallel running time.
type Stats struct {
	CommSteps  int64 // Σ over rounds of the round's worst link distance
	LocalSteps int64 // Σ over phases of unit local work
	Rounds     int64 // number of communication rounds
	Messages   int64 // total point-to-point messages sent
}

// Time returns the total simulated parallel time, the quantity the
// paper's Θ-bounds describe.
func (s Stats) Time() int64 { return s.CommSteps + s.LocalSteps }

// Sub returns the counter-wise difference s − prev: the cost accumulated
// between two snapshots. It is the span-delta primitive of
// internal/trace (a span records Stats at Begin and End; Sub of the two
// is the span's cost).
func (s Stats) Sub(prev Stats) Stats {
	return Stats{
		CommSteps:  s.CommSteps - prev.CommSteps,
		LocalSteps: s.LocalSteps - prev.LocalSteps,
		Rounds:     s.Rounds - prev.Rounds,
		Messages:   s.Messages - prev.Messages,
	}
}

// Add returns the counter-wise sum s + other.
func (s Stats) Add(other Stats) Stats {
	return Stats{
		CommSteps:  s.CommSteps + other.CommSteps,
		LocalSteps: s.LocalSteps + other.LocalSteps,
		Rounds:     s.Rounds + other.Rounds,
		Messages:   s.Messages + other.Messages,
	}
}

func (s Stats) String() string {
	return fmt.Sprintf("time=%d (comm=%d local=%d rounds=%d msgs=%d)",
		s.Time(), s.CommSteps, s.LocalSteps, s.Rounds, s.Messages)
}

// M is a simulated SIMD machine: a topology plus cost accounting.
//
// Concurrency contract: an M is *owned* by a single goroutine. The cost
// counters, the round-cost table and the observer stream are per-M state
// mutated without synchronization on every charged round, so sharing one
// M across goroutines — even for "read-only" primitives — is a data race.
// Every per-PE loop runs once, on the owning goroutine. Concurrency
// across machines is supported: the Topology is immutable after
// construction (mesh.Mesh, hypercube.Cube, ccc.CCC, shuffle.SE), so
// concurrent simulations wrap one shared Topology in one M per goroutine
// (exercised under -race by TestTopologySharedAcrossMachines).
type M struct {
	topo Topology
	n    int
	st   Stats
	obs  Observer // nil unless tracing is attached (see observe.go)
	inj  Injector // nil unless fault injection is attached (see fault.go)

	// Round-cost table, one entry per bit b < Bits(), −1 until the first
	// round of that pattern is charged: xor[b] is the worst partner
	// distance of a bit-b XOR round, shift[b] that of a ±2^b shift round.
	xor, shift []int

	scr arena // per-machine scratch-buffer pool (see arena.go)
}

// New wraps a topology in a machine with fresh counters.
func New(t Topology) *M {
	m := &M{topo: t, n: t.Size(), scr: arena{pools: map[reflect.Type]any{}}}
	b := m.Bits()
	tab := make([]int, 2*b)
	for i := range tab {
		tab[i] = -1
	}
	m.xor, m.shift = tab[:b:b], tab[b:]
	return m
}

// Size returns the number of PEs.
func (m *M) Size() int { return m.n }

// Topology returns the underlying topology.
func (m *M) Topology() Topology { return m.topo }

// Stats returns the accumulated counters.
func (m *M) Stats() Stats { return m.st }

// Reset zeroes every Stats counter, restarting the simulated clock at 0.
// The round-cost table survives a Reset — it depends only on the
// (immutable) topology, so identical operation sequences charge
// identical costs before and after a Reset. An attached Observer is also
// preserved; note that resetting mid-span rewinds the simulated timeline
// a tracer sees (spans opened before the Reset will record an End
// snapshot smaller than their Begin), so attach tracers to freshly reset
// machines.
//
// Reset also starts a new scratch-arena generation: scratch buffers
// parked before the Reset are released to the garbage collector rather
// than reused (see arena.go), so a machine reused across independent
// runs does not pin the previous run's peak scratch.
func (m *M) Reset() {
	m.st = Stats{}
	m.scr.gen++
}

// WarmReset zeroes the Stats counters like Reset but keeps the current
// scratch-arena generation, so scratch buffers parked by earlier runs
// remain reusable. It is the reset for deliberate machine reuse across
// runs of the same shape — the serving pool (internal/server) checks a
// pre-warmed machine out, WarmResets it, and runs the next request with
// zero machine or scratch allocations. Use the plain Reset when the
// next run's peak scratch is unrelated to the previous one's and parked
// buffers should be released to the garbage collector instead.
func (m *M) WarmReset() { m.st = Stats{} }

// xorRoundCost returns the worst partner distance of a bit-b XOR round:
// max over i of Distance(i, i ⊕ 2^b), pairs off the machine excluded. A
// bit outside [0, Bits()) costs 0.
func (m *M) xorRoundCost(b int) int {
	if b < 0 || b >= len(m.xor) {
		return 0
	}
	if m.xor[b] < 0 {
		off, max := 1<<b, 0
		for i := 0; i < m.n; i++ {
			if j := i ^ off; j > i && j < m.n {
				if d := m.topo.Distance(i, j); d > max {
					max = d
				}
			}
		}
		m.xor[b] = max
	}
	return m.xor[b]
}

// shiftRoundCost returns the worst partner distance of a round in which
// PE i sends to PE i+off (off ≥ 0): max over valid i of Distance(i,
// i+off). Power-of-two offsets are stored in the table; any other offset
// is scanned each time (no production round uses one).
func (m *M) shiftRoundCost(off int) int {
	if off >= m.n {
		return 0
	}
	if off > 0 && off&(off-1) == 0 {
		b := bits.TrailingZeros(uint(off))
		if m.shift[b] < 0 {
			m.shift[b] = m.scanShift(off)
		}
		return m.shift[b]
	}
	return m.scanShift(off)
}

// scanShift is max over valid i of Distance(i, i+off), by an O(n) scan.
func (m *M) scanShift(off int) int {
	max := 0
	for i := 0; i+off < m.n; i++ {
		if d := m.topo.Distance(i, i+off); d > max {
			max = d
		}
	}
	return max
}

// chargeXOR records one bit-b XOR round with the given message count.
func (m *M) chargeXOR(b int, msgs int) {
	d := m.xorRoundCost(b)
	m.st.Rounds++
	m.st.CommSteps += int64(d)
	m.st.LocalSteps++
	m.st.Messages += int64(msgs)
	if m.obs != nil {
		m.obs.Round(RoundInfo{Kind: RoundXOR, Param: b, Dist: d, Msgs: msgs})
	}
	if m.inj != nil {
		m.faultRound(RoundInfo{Kind: RoundXOR, Param: b, Dist: d, Msgs: msgs})
	}
}

// chargeShift records one ±off shift round.
func (m *M) chargeShift(off, msgs int) {
	if off < 0 {
		off = -off
	}
	d := m.shiftRoundCost(off)
	m.st.Rounds++
	m.st.CommSteps += int64(d)
	m.st.LocalSteps++
	m.st.Messages += int64(msgs)
	if m.obs != nil {
		m.obs.Round(RoundInfo{Kind: RoundShift, Param: off, Dist: d, Msgs: msgs})
	}
	if m.inj != nil {
		m.faultRound(RoundInfo{Kind: RoundShift, Param: off, Dist: d, Msgs: msgs})
	}
}

// ChargeLocal records phases of pure Θ(1)-per-PE local computation.
func (m *M) ChargeLocal(phases int) {
	m.st.LocalSteps += int64(phases)
	if m.obs != nil {
		m.obs.Round(RoundInfo{Kind: RoundLocal, Param: phases})
	}
}

// ChargeRoute records a structured route in which item i moves to
// dest[i] (dest must be injective on the valid entries; the patterns used
// by the algorithms — order-preserving compaction and spreading — admit
// congestion-free greedy routes whose time is the worst point-to-point
// distance).
func (m *M) ChargeRoute(src, dest []int) {
	max, msgs := 0, 0
	for k, i := range src {
		j := dest[k]
		if i == j {
			continue
		}
		msgs++
		if d := m.topo.Distance(i, j); d > max {
			max = d
		}
	}
	m.st.Rounds++
	m.st.CommSteps += int64(max)
	m.st.LocalSteps++
	m.st.Messages += int64(msgs)
	if m.obs != nil {
		m.obs.Round(RoundInfo{Kind: RoundRoute, Dist: max, Msgs: msgs})
	}
	if m.inj != nil {
		m.faultRound(RoundInfo{Kind: RoundRoute, Dist: max, Msgs: msgs})
	}
}

// Bits returns ⌈log₂ n⌉ for the machine size.
func (m *M) Bits() int { return bits.Len(uint(m.n - 1)) }
