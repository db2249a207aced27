package machine

// This file is the record-layout ([]Reg[T]) surface of the fundamental
// data movement operations of §2.6 (Table 1). A register file is a slice
// with one entry per PE; Reg.Ok distinguishes PEs that hold a data item
// from empty PEs (the paper allows strings with fewer items than PEs).
// Segments ("strings of processors", §2.2/§2.3) are described by a
// boolean segment-start mask; all segmented operations run in every
// string simultaneously, as the paper requires.
//
// Since the columnar refactor the implementations live in colops.go:
// each primitive here splits its register file into a struct-of-arrays
// colstore.File drawn from the machine's arena, runs the columnar
// primitive, and joins the columns back — including the stale values of
// empty registers, which the old record implementation propagated
// byte-for-byte through swaps and copies and which callers may observe.
// The split/join bridges are charge-free host work, so spans, Stats, and
// the observer round stream are identical to both the columnar entry
// points and the pre-refactor record implementation (pinned by the
// columnardiff battery in the repository root).
//
// Allocation discipline is unchanged: every primitive draws its O(n)
// scratch from the machine's arena (arena.go) and releases it before
// returning, and each per-PE round body is a named function — not a
// closure — invoked directly on the serial path and wrapped in a closure
// only when the worker-pool backend (WithParallel) shards it. A warm
// machine runs Scan/Spread/Semigroup/Sort/Compact/Route/ShiftWithin
// without touching the heap at all (asserted by alloc_test.go, measured
// by bench_perf_test.go).

import "strconv"

// pspan opens a primitive-level span on the attached observer (nil-check
// fast path: zero work when tracing is off). Callers must invoke the
// returned closer; attribute construction only happens when observed.
func pspan(m *M, name string, size int) func() {
	if m.obs == nil {
		return nil
	}
	m.obs.SpanBegin(name, []string{"n", strconv.Itoa(size)})
	return m.obs.SpanEnd
}

func closeSpan(end func()) {
	if end != nil {
		end()
	}
}

// addInt is the shard-count combiner of every par.Reduce in colops.go.
func addInt(a, b int) int { return a + b }

// Reg is one PE's register: a value and a validity flag.
type Reg[T any] struct {
	V  T
	Ok bool
}

// Some returns an occupied register.
func Some[T any](v T) Reg[T] { return Reg[T]{V: v, Ok: true} }

// None returns an empty register.
func None[T any]() Reg[T] { return Reg[T]{} }

// WholeMachine returns the segment mask describing a single string
// spanning the entire machine.
func WholeMachine(n int) []bool {
	seg := make([]bool, n)
	if n > 0 {
		seg[0] = true
	}
	return seg
}

// BlockSegments returns the mask of aligned segments of the given size.
func BlockSegments(n, block int) []bool {
	seg := make([]bool, n)
	for i := 0; i < n; i += block {
		seg[i] = true
	}
	return seg
}

// ScanDir selects the scan direction.
type ScanDir int

// Scan directions.
const (
	Forward  ScanDir = iota // prefixes p_i = x_1 ∗ … ∗ x_i  (§2.6)
	Backward                // suffixes
)

// Scan performs a segmented inclusive scan with the associative operation
// op, in Θ(√n) mesh / Θ(log n) hypercube time (Table 1: parallel prefix).
// Empty registers act as identity elements. The result is written in
// place; each PE ends with the combined value of all items from its
// segment boundary through itself.
//
// The simulated cost is that of the Hillis–Steele doubling scan: one
// shift round per offset 1, 2, 4, … below the longest segment. The host
// does not run the doubling, though: it computes the result with one
// O(n) fold per call and charges the doubling's rounds in closed form
// (chargeScanRounds in colops.go). A fold equals the doubling tree only
// when op is associative — op(op(a, b), c) == op(a, op(b, c)) bit for
// bit on every value a caller can pass — so that is a hard requirement
// of Scan, ScanCols, Semigroup and SemigroupCols, not a hint. Floating-
// point sums, or comparisons that a NaN can reach, do not qualify.
//
// A nil op is the flood mode: when both registers are occupied the
// neighbour's value wins, which spreads each segment's boundary value
// across the segment. Spread, Semigroup, and Compact use it internally —
// a named nil beats a func literal here because closures materialised
// inside generic functions carry the instantiation dictionary and hence
// heap-allocate per call, the only remaining allocation on these paths.
func Scan[T any](m *M, regs []Reg[T], segStart []bool, dir ScanDir, op func(a, b T) T) {
	f := splitRegs(m, regs)
	ScanCols(m, f, segStart, dir, op)
	joinRegs(f, regs)
	PutCols(m, f)
}

// Spread gives every PE the value of the nearest occupied register within
// its segment: marked items flood in both directions. With exactly one
// marked item per string this is the broadcast operation of §2.6, costing
// Θ(√n) mesh / Θ(log n) hypercube time.
func Spread[T any](m *M, regs []Reg[T], segStart []bool) {
	f := splitRegs(m, regs)
	SpreadCols(m, f, segStart)
	joinRegs(f, regs)
	PutCols(m, f)
}

// Semigroup applies the associative operation to all items of each
// segment and delivers the result to every PE of the segment (§2.6:
// semigroup computation — min, max, sum, …). op must be associative in
// the exact sense Scan requires.
func Semigroup[T any](m *M, regs []Reg[T], segStart []bool, op func(a, b T) T) {
	f := splitRegs(m, regs)
	SemigroupCols(m, f, segStart, op)
	joinRegs(f, regs)
	PutCols(m, f)
}

// MergeBlocks merges, within every aligned block of the given size, the
// two sorted halves of the block into one sorted block — the merge
// operation of §2.6 (Θ(√n) mesh, Θ(log n) hypercube for full-machine
// blocks). All blocks are processed in the same rounds.
func MergeBlocks[T any](m *M, regs []Reg[T], block int, less func(a, b T) bool) {
	if block < 2 {
		return
	}
	f := splitRegs(m, regs)
	MergeBlocksCols(m, f, block, less)
	joinRegs(f, regs)
	PutCols(m, f)
}

// SortBlocks sorts every aligned block of the given size by bitonic
// sort: Θ(√n) on the mesh (shuffled/proximity indexing) and Θ(log² n) on
// the hypercube for full-machine blocks (Table 1: sort). Empty registers
// gather at the tail of each block.
func SortBlocks[T any](m *M, regs []Reg[T], block int, less func(a, b T) bool) {
	f := splitRegs(m, regs)
	SortBlocksCols(m, f, block, less)
	joinRegs(f, regs)
	PutCols(m, f)
}

// Sort sorts the whole machine (one string).
func Sort[T any](m *M, regs []Reg[T], less func(a, b T) bool) {
	SortBlocks(m, regs, len(regs), less)
}

// Compact moves the occupied registers of each segment to the front of
// the segment, preserving order: a parallel-prefix rank computation plus
// one structured route (the "pack into a string" step used throughout
// §4–§5).
func Compact[T any](m *M, regs []Reg[T], segStart []bool) {
	f := splitRegs(m, regs)
	CompactCols(m, f, segStart)
	joinRegs(f, regs)
	PutCols(m, f)
}

// Route moves item i to dest[i] (−1 to drop). dest must be injective.
// It is charged as one structured route; callers only use monotone or
// block-local patterns that admit congestion-free greedy routing.
func Route[T any](m *M, regs []Reg[T], dest []int) {
	f := splitRegs(m, regs)
	RouteCols(m, f, dest)
	joinRegs(f, regs)
	PutCols(m, f)
}

// ShiftWithin returns what each PE receives when every PE sends its
// register to PE i+delta, with transfers confined to aligned blocks of
// the given size (one shift communication round). The result is drawn
// from the machine's scratch arena: callers that are done with it may
// release it with PutScratch to keep the enclosing loop allocation-free
// (or simply drop it — an unreleased buffer is garbage-collected).
func ShiftWithin[T any](m *M, regs []Reg[T], block, delta int) []Reg[T] {
	f := splitRegs(m, regs)
	shifted := ShiftWithinCols(m, f, block, delta)
	out := GetScratch[Reg[T]](m, len(regs))
	joinRegs(shifted, out)
	PutCols(m, shifted)
	PutCols(m, f)
	return out
}

// Count returns, to the caller (not the PEs), the number of occupied
// registers; it is free of simulated cost and used by test/driver code.
func Count[T any](regs []Reg[T]) int {
	c := 0
	for _, r := range regs {
		if r.Ok {
			c++
		}
	}
	return c
}

// Gather returns the occupied register values in index order — a
// zero-cost observation for drivers and tests, not a machine operation.
func Gather[T any](regs []Reg[T]) []T {
	var out []T
	for _, r := range regs {
		if r.Ok {
			out = append(out, r.V)
		}
	}
	return out
}

// Scatter places vals one per PE from PE 0 upward — the paper's input
// convention ("no processor contains more than one of the functions",
// §2.4). Zero simulated cost: it is the initial data layout.
func Scatter[T any](n int, vals []T) []Reg[T] {
	if len(vals) > n {
		panic("machine: more values than PEs")
	}
	regs := make([]Reg[T], n)
	for i, v := range vals {
		regs[i] = Some(v)
	}
	return regs
}
