package machine

// This file implements every Table-1 data movement primitive over the
// simulator's one register layout, colstore.File: a value column and an
// occupancy column, one entry per PE. Round bodies are flat loops over
// the two contiguous slices, which keeps them bounds-check-light and
// lets internal/par shard them. Every primitive works in place on the
// caller's file. An empty register keeps whatever stale value it held;
// swaps and copies carry those bytes along, and callers may observe
// them, so the outputs pinned by the columnardiff battery in the
// repository root include them.
//
// Charging discipline: round bodies never touch the machine; all
// chargeXOR/chargeShift/ChargeLocal/ChargeRoute calls happen on the
// owning goroutine between rounds, so serial and sharded execution stay
// bit-identical. Every primitive draws its O(n) scratch from the
// machine's arena and releases it before returning (a File is two arena
// buffers — see GetCols/PutCols).
//
// Host work need not follow the round structure. Every primitive's
// charges come from the charge-only entry points in charges.go, so a
// primitive may compute its registers with whatever host code is
// cheapest and still charge the rounds the paper's algorithm runs:
// ScanCols computes the doubling scan's registers with one O(n) fold
// (the doubling kernel survives as the test oracle in scanref_test.go),
// CompactCols ranks with one sequential pass, and penvelope's Lemma 3.1
// levels do host work per piece rather than per PE.

import (
	"dyncg/internal/colstore"
	"dyncg/internal/par"
)

// GetCols returns an empty columnar register file of length n drawn from
// m's scratch arena. Release it with PutCols (optional, like PutScratch).
func GetCols[T any](m *M, n int) colstore.File[T] {
	return colstore.File[T]{Val: GetScratch[T](m, n), Occ: GetScratch[bool](m, n)}
}

// PutCols releases a file's two buffers back to m's arena.
func PutCols[T any](m *M, f colstore.File[T]) {
	PutScratch(m, f.Occ)
	PutScratch(m, f.Val)
}

// --- Parallel prefix (segmented scan) -------------------------------------

// scanForward is the host pass of a forward segmented scan: a left fold
// acc = op(acc, x) per segment. An empty register is an identity and
// keeps its stale bytes until the segment's first occupied PE reaches
// it; a nil op keeps the first occupied value (flood). It records the
// segment lengths into h.
func scanForward[T any](val []T, occ, segStart []bool, op func(a, b T) T, h *ScanShape) {
	n := len(val)
	var acc T
	have := false
	start := 0
	for i := 0; i < n; i++ {
		if segStart[i] && i > start {
			h.Add(i - start)
			start, have = i, false
		}
		switch {
		case !have:
			if occ[i] {
				acc, have = val[i], true
			}
			continue
		case !occ[i]:
			occ[i] = true
		case op != nil:
			acc = op(acc, val[i])
		}
		val[i] = acc
	}
	if n > 0 {
		h.Add(n - start)
	}
}

// scanBackward is scanForward mirrored: a right fold acc = op(x, acc)
// per segment, run from each segment's last PE down to its first.
func scanBackward[T any](val []T, occ, segStart []bool, op func(a, b T) T, h *ScanShape) {
	n := len(val)
	var acc T
	have := false
	end := n
	for i := n - 1; i >= 0; i-- {
		if i+1 < end && segStart[i+1] {
			h.Add(end - i - 1)
			end, have = i+1, false
		}
		switch {
		case !have:
			if occ[i] {
				acc, have = val[i], true
			}
			continue
		case !occ[i]:
			occ[i] = true
		case op != nil:
			acc = op(val[i], acc)
		}
		val[i] = acc
	}
	if n > 0 {
		h.Add(end)
	}
}

// ScanCols performs a segmented inclusive scan with the associative
// operation op, in Θ(√n) mesh / Θ(log n) hypercube time (Table 1:
// parallel prefix). Empty registers act as identity elements. The result
// is written in place; each PE ends with the combined value of all items
// from its segment boundary through itself.
//
// The simulated cost is that of the Hillis–Steele doubling scan: one
// shift round per offset 1, 2, 4, … below the longest segment. The host
// does not run the doubling, though: it computes the result with one
// O(n) fold per call and charges the doubling's rounds in closed form
// (ChargeScan). A fold equals the doubling tree only when op is
// associative — op(op(a, b), c) == op(a, op(b, c)) bit for bit on every
// value a caller can pass — so that is a hard requirement of ScanCols
// and SemigroupCols, not a hint. Floating-point sums, or comparisons
// that a NaN can reach, do not qualify.
//
// A nil op is the flood mode: when both registers are occupied the
// neighbour's value wins, which spreads each segment's boundary value
// across the segment. SpreadCols, SemigroupCols and CompactCols use it
// internally — a named nil beats a func literal here because closures
// materialised inside generic functions carry the instantiation
// dictionary and hence heap-allocate per call.
func ScanCols[T any](m *M, f colstore.File[T], segStart []bool, dir ScanDir, op func(a, b T) T) {
	var h ScanShape
	if dir == Forward {
		scanForward(f.Val, f.Occ, segStart, op, &h)
	} else {
		scanBackward(f.Val, f.Occ, segStart, op, &h)
	}
	ChargeScan(m, f.Len(), &h)
}

// --- Broadcast -------------------------------------------------------------

// spreadFixCols resolves the two flood directions of SpreadCols: prefer
// the forward (leftward) source where it exists. PE i writes only its
// own registers.
func spreadFixCols[T any](val, fwdVal []T, occ, fwdOcc []bool, lo, hi int) {
	for i := lo; i < hi; i++ {
		if fwdOcc[i] {
			val[i], occ[i] = fwdVal[i], true
		}
	}
}

// SpreadCols gives every PE the value of the nearest occupied register
// within its segment: marked items flood in both directions. With
// exactly one marked item per string this is the broadcast operation of
// §2.6, costing Θ(√n) mesh / Θ(log n) hypercube time.
func SpreadCols[T any](m *M, f colstore.File[T], segStart []bool) {
	defer closeSpan(pspan(m, "broadcast", f.Len()))
	n := f.Len()
	fwd := GetCols[T](m, n)
	fwd.CopyFrom(f)
	ScanCols(m, fwd, segStart, Forward, nil)
	ScanCols(m, f, segStart, Backward, nil)
	m.ChargeLocal(1)
	if m.workers > 1 {
		par.ForEach(m.workers, n, func(lo, hi int) {
			spreadFixCols(f.Val, fwd.Val, f.Occ, fwd.Occ, lo, hi)
		})
	} else {
		spreadFixCols(f.Val, fwd.Val, f.Occ, fwd.Occ, 0, n)
	}
	PutCols(m, fwd)
}

// markLastCols marks each segment's last PE with its register. PE i
// writes only index i of the marked file.
func markLastCols[T any](markedVal, val []T, markedOcc, occ, segStart []bool, lo, hi int) {
	n := len(val)
	for i := lo; i < hi; i++ {
		if i+1 >= n || segStart[i+1] {
			markedVal[i], markedOcc[i] = val[i], occ[i]
		}
	}
}

// SemigroupCols applies the associative operation to all items of each
// segment and delivers the result to every PE of the segment (§2.6:
// semigroup computation — min, max, sum, …). op must be associative in
// the exact sense ScanCols requires.
func SemigroupCols[T any](m *M, f colstore.File[T], segStart []bool, op func(a, b T) T) {
	defer closeSpan(pspan(m, "semigroup", f.Len()))
	ScanCols(m, f, segStart, Forward, op)
	n := f.Len()
	m.ChargeLocal(1)
	marked := GetCols[T](m, n)
	if m.workers > 1 {
		par.ForEach(m.workers, n, func(lo, hi int) {
			markLastCols(marked.Val, f.Val, marked.Occ, f.Occ, segStart, lo, hi)
		})
	} else {
		markLastCols(marked.Val, f.Val, marked.Occ, f.Occ, segStart, 0, n)
	}
	ScanCols(m, marked, segStart, Backward, nil)
	f.CopyFrom(marked)
	PutCols(m, marked)
}

// --- Bitonic merge and sort ------------------------------------------------

// ceRoundCols is the per-PE body of one compare-exchange round; each
// pair (i, i ⊕ mask) is handled from its smaller index, so writes stay
// disjoint across shards. Occupied registers sort before empty ones, and
// swaps exchange the full register — stale values of empty registers
// included.
func ceRoundCols[T any](val []T, occ []bool, mask, block int, less func(a, b T) bool, lo, hi int) {
	n := len(val)
	for i := lo; i < hi; i++ {
		j := i ^ mask
		if j <= i || j >= n || i/block != j/block {
			continue
		}
		if (occ[j] && !occ[i]) || (occ[j] && occ[i] && less(val[j], val[i])) {
			val[i], val[j] = val[j], val[i]
			occ[i], occ[j] = occ[j], occ[i]
		}
	}
}

// compareExchangeCols performs the host work of one lock-step
// compare-exchange round between PEs i and i ⊕ mask within aligned
// blocks.
func compareExchangeCols[T any](m *M, f colstore.File[T], mask, block int, less func(a, b T) bool) {
	n := f.Len()
	if m.workers > 1 {
		par.ForEach(m.workers, n, func(lo, hi int) {
			ceRoundCols(f.Val, f.Occ, mask, block, less, lo, hi)
		})
	} else {
		ceRoundCols(f.Val, f.Occ, mask, block, less, 0, n)
	}
}

// MergeBlocksCols merges, within every aligned block of the given size,
// the two sorted halves of the block into one sorted block — the merge
// operation of §2.6 (Θ(√n) mesh, Θ(log n) hypercube for full-machine
// blocks). All blocks are processed in the same rounds, which
// ChargeMergeBlocks charges; block must be a power of two or cover the
// whole machine.
func MergeBlocksCols[T any](m *M, f colstore.File[T], block int, less func(a, b T) bool) {
	if block < 2 {
		return
	}
	compareExchangeCols(m, f, block-1, block, less)
	for mask := block / 4; mask >= 1; mask /= 2 {
		compareExchangeCols(m, f, mask, block, less)
	}
	ChargeMergeBlocks(m, f.Len(), block)
}

// SortBlocksCols sorts every aligned block of the given size by bitonic
// sort: Θ(√n) on the mesh (shuffled/proximity indexing) and Θ(log² n) on
// the hypercube for full-machine blocks (Table 1: sort). Empty registers
// gather at the tail of each block.
func SortBlocksCols[T any](m *M, f colstore.File[T], block int, less func(a, b T) bool) {
	defer closeSpan(pspan(m, "sort", block))
	for sub := 2; sub <= block; sub *= 2 {
		MergeBlocksCols(m, f, sub, less)
	}
}

// SortCols sorts the whole machine (one string).
func SortCols[T any](m *M, f colstore.File[T], less func(a, b T) bool) {
	SortBlocksCols(m, f, f.Len(), less)
}

// --- Routing-based operations ----------------------------------------------

// CompactCols moves the occupied registers of each segment to the front
// of the segment, preserving order: a parallel-prefix rank computation
// plus one structured route (the "pack into a string" step used
// throughout §4–§5). Vacated registers are left empty with zeroed
// values. The host ranks with one sequential pass; ChargeCompact charges
// the machine's prefix-and-route rounds.
func CompactCols[T any](m *M, f colstore.File[T], segStart []bool) {
	n := f.Len()
	var shape ScanShape
	out := GetCols[T](m, n)
	src := GetScratch[int](m, n)[:0]
	dst := GetScratch[int](m, n)[:0]
	base, next := 0, 0
	for i := 0; i < n; i++ {
		if segStart[i] && i > 0 {
			shape.Add(i - base)
			base, next = i, i
		}
		if !f.Occ[i] {
			continue
		}
		src = append(src, i)
		dst = append(dst, next)
		out.Val[next], out.Occ[next] = f.Val[i], true
		next++
	}
	if n > 0 {
		shape.Add(n - base)
	}
	ChargeCompact(m, n, &shape, src, dst)
	f.CopyFrom(out)
	PutScratch(m, dst)
	PutScratch(m, src)
	PutCols(m, out)
}

// RouteCols moves item i to dest[i] (−1 to drop). dest must be
// injective. It is charged as one structured route; callers only use
// monotone or block-local patterns that admit congestion-free greedy
// routing.
func RouteCols[T any](m *M, f colstore.File[T], dest []int) {
	defer closeSpan(pspan(m, "route", f.Len()))
	n := f.Len()
	out := GetCols[T](m, n)
	src := GetScratch[int](m, n)[:0]
	dst := GetScratch[int](m, n)[:0]
	for i := 0; i < n; i++ {
		if !f.Occ[i] || dest[i] < 0 {
			continue
		}
		if out.Occ[dest[i]] {
			panic("machine: Route destination collision")
		}
		out.Val[dest[i]], out.Occ[dest[i]] = f.Val[i], true
		src = append(src, i)
		dst = append(dst, dest[i])
	}
	m.ChargeRoute(src, dst)
	f.CopyFrom(out)
	PutScratch(m, dst)
	PutScratch(m, src)
	PutCols(m, out)
}

// shiftRoundCols is the per-PE body of ShiftWithinCols: PE i
// writes only index i of the out file; the source file is read-only for
// the round.
func shiftRoundCols[T any](out colstore.File[T], val []T, occ []bool, block, delta, lo, hi int) int {
	n := len(val)
	msgs := 0
	for i := lo; i < hi; i++ {
		j := i - delta // the PE whose value lands here
		if j < 0 || j >= n || j/block != i/block || !occ[j] {
			continue
		}
		out.Val[i], out.Occ[i] = val[j], true
		msgs++
	}
	return msgs
}

// ShiftWithinCols returns what each PE receives when every PE sends its
// register to PE i+delta, with transfers confined to aligned blocks of
// the given size (one shift communication round). The result file is
// drawn from the machine's arena: release it with PutCols when done to
// keep the enclosing loop allocation-free (or simply drop it — an
// unreleased buffer is garbage-collected).
func ShiftWithinCols[T any](m *M, f colstore.File[T], block, delta int) colstore.File[T] {
	n := f.Len()
	out := GetCols[T](m, n)
	var msgs int
	if m.workers > 1 {
		msgs = par.Reduce(m.workers, n, 0, func(lo, hi int) int {
			return shiftRoundCols(out, f.Val, f.Occ, block, delta, lo, hi)
		}, addInt)
	} else {
		msgs = shiftRoundCols(out, f.Val, f.Occ, block, delta, 0, n)
	}
	ChargeShift(m, delta, msgs)
	return out
}
