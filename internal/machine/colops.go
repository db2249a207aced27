package machine

// This file implements every Table-1 data movement primitive over the
// simulator's one register layout, colstore.File: a value column and an
// occupancy column, one entry per PE. Round bodies are flat loops over
// the two contiguous slices, which keeps them bounds-check-light. Every
// primitive works in place on the caller's file. An empty register
// keeps whatever stale value it held, and the scans and copies carry
// those bytes along; callers may observe them, so the outputs pinned by
// the columnardiff battery in the repository root include them. Sort
// and merge carry no stale bytes: a register they vacate is left empty
// with a zeroed value.
//
// Charging discipline: round bodies never touch the machine; all
// chargeXOR/chargeShift/ChargeLocal/ChargeRoute calls happen between
// rounds. Every primitive draws its O(n) scratch from the machine's
// arena and releases it before returning (a File is two arena buffers —
// see GetCols/PutCols).
//
// Host work need not follow the round structure. Every primitive's
// charges come from the charge-only entry points in charges.go, so a
// primitive may compute its registers with whatever host code is
// cheapest and still charge the rounds the paper's algorithm runs:
// ScanCols computes the doubling scan's registers with one O(n) fold
// (the doubling kernel survives as the test oracle in scanref_test.go),
// SortBlocksCols and MergeBlocksCols merge sort the occupied registers
// of each block instead of running the bitonic network (the network is
// the test oracle in sortref_test.go), CompactCols ranks with one
// sequential pass, and penvelope's Lemma 3.1 levels do host work per
// piece rather than per PE.

import (
	"math/bits"

	"dyncg/internal/colstore"
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
	// Resolve the two flood directions: prefer the forward (leftward)
	// source where it exists.
	m.ChargeLocal(1)
	for i, ok := range fwd.Occ {
		if ok {
			f.Val[i], f.Occ[i] = fwd.Val[i], true
		}
	}
	PutCols(m, fwd)
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
	// Mark each segment's last PE with its register.
	for i := 0; i < n; i++ {
		if i+1 >= n || segStart[i+1] {
			marked.Val[i], marked.Occ[i] = f.Val[i], f.Occ[i]
		}
	}
	ScanCols(m, marked, segStart, Backward, nil)
	f.CopyFrom(marked)
	PutCols(m, marked)
}

// --- Merge and sort ----------------------------------------------------------

// The simulated cost of sort and merge is that of Batcher's bitonic
// network (Table 1), charged in closed form by ChargeMergeBlocks. The
// host does not run the network: within each aligned block it merge
// sorts the positions of the block's k occupied registers — O(k log k)
// comparisons, none for empty registers — and then moves the values
// into place. With a strict total order every correct sort yields the
// same sequence, so the registers equal the network's; on ties the
// order is stable (input position). The network survives as the test
// oracle in sortref_test.go.

// mergePos merges the position runs l and r, each sorted by less over
// val, into dst. It calls less(right, left) once per comparison and takes
// from the left run unless that holds, so equal values keep their run
// order.
func mergePos[T any](val []T, l, r, dst []int32, less func(a, b T) bool) {
	if len(l) == 0 || len(r) == 0 || !less(val[r[0]], val[l[len(l)-1]]) {
		copy(dst[copy(dst, l):], r) // already in order
		return
	}
	i, j, k := 0, 0, 0
	for i < len(l) && j < len(r) {
		if less(val[r[j]], val[l[i]]) {
			dst[k] = r[j]
			j++
		} else {
			dst[k] = l[i]
			i++
		}
		k++
	}
	k += copy(dst[k:], l[i:])
	copy(dst[k:], r[j:])
}

// sortPos stably sorts the positions a by less over val, bottom up, with
// b (the same length) as the other buffer, and returns whichever of the
// two holds the result.
func sortPos[T any](val []T, a, b []int32, less func(a, b T) bool) []int32 {
	k := len(a)
	for w := 1; w < k; w *= 2 {
		for s := 0; s < k; s += 2 * w {
			mid, e := min(s+w, k), min(s+2*w, k)
			mergePos(val, a[s:mid], a[mid:e], b[s:e], less)
		}
		a, b = b, a
	}
	return a
}

// placeBlock moves the occupied register at PE order[r] to PE lo+r for
// every r, in one pass over the moves and with one value of temporary
// storage. The moves form chains, each ending at a register that was
// empty and starting at one the block vacates, and cycles among the
// registers that stay occupied. A vacated register is left empty with a
// zeroed value; a register that was empty already keeps its contents.
// order is clobbered.
func placeBlock[T any](val []T, occ []bool, lo int, order []int32) {
	end := int32(lo + len(order))
	var zero T
	for r := range order { // chains, filled backwards from their empty end
		if occ[lo+r] {
			continue
		}
		occ[lo+r] = true
		for cur := int32(lo + r); ; {
			src := order[cur-int32(lo)]
			order[cur-int32(lo)] = -1
			val[cur] = val[src]
			if src >= end {
				val[src], occ[src] = zero, false
				break
			}
			cur = src
		}
	}
	for r, src := range order { // cycles
		head := int32(lo + r)
		if src < 0 || src == head {
			continue // placed, or already in place
		}
		held := val[head]
		for cur := head; ; {
			src := order[cur-int32(lo)]
			order[cur-int32(lo)] = -1
			if src == head {
				val[cur] = held
				break
			}
			val[cur] = val[src]
			cur = src
		}
	}
}

// orderRuns does the host work of a sort (merge false) or merge (merge
// true) for the blocks whose occupied positions pos lists, ascending and
// whole blocks only; tmp is scratch of the same length. A block is
// aligned and block (a power of two) PEs long. A merge expects each half
// of a block sorted with its empty registers at the tail and merges the
// halves' occupied runs.
func orderRuns[T any](val []T, occ []bool, pos, tmp []int32, block int, merge bool, less func(a, b T) bool) {
	for s := 0; s < len(pos); {
		lo := int(pos[s]) &^ (block - 1)
		e, mid := s+1, s
		for e < len(pos) && int(pos[e]) < lo+block {
			e++
		}
		var order []int32
		if merge {
			for mid < e && int(pos[mid]) < lo+block/2 {
				mid++
			}
			order = tmp[s:e]
			mergePos(val, pos[s:mid], pos[mid:e], order, less)
		} else {
			order = sortPos(val, pos[s:e], tmp[s:e], less)
		}
		placeBlock(val, occ, lo, order)
		s = e
	}
}

// orderBlocks runs orderRuns over every aligned block of f. Its scratch
// holds positions, never register values, so a pooled machine pins no
// value a caller sorted.
func orderBlocks[T any](m *M, f colstore.File[T], block int, merge bool, less func(a, b T) bool) {
	k := f.Count()
	if k == 0 {
		return
	}
	buf := GetScratch[int32](m, 2*k)
	colstore.Active(f.Occ, buf[:0])
	orderRuns(f.Val, f.Occ, buf[:k], buf[k:], block, merge, less)
	PutScratch(m, buf)
}

// MergeBlocksCols merges, within every aligned block of the given size,
// the two sorted halves of the block into one sorted block — the merge
// operation of §2.6 (Θ(√n) mesh, Θ(log n) hypercube for full-machine
// blocks). block must be a power of two, and each half must be sorted
// with its empty registers at its tail, as SortBlocksCols leaves it.
// All blocks are processed in the same rounds,
// which ChargeMergeBlocks charges; the host merges each block's two
// occupied runs with at most k comparisons for k occupied registers.
func MergeBlocksCols[T any](m *M, f colstore.File[T], block int, less func(a, b T) bool) {
	if block < 2 {
		return
	}
	if block&(block-1) != 0 {
		panic("machine: MergeBlocksCols block must be a power of two")
	}
	orderBlocks(m, f, block, true, less)
	ChargeMergeBlocks(m, f.Len(), block)
}

// SortBlocksCols sorts every aligned block of the given size: Θ(√n) on
// the mesh (shuffled/proximity indexing) and Θ(log² n) on the hypercube
// for full-machine blocks (Table 1: sort), charged as the bitonic
// network's merges of sub-blocks 2, 4, …, block. Like the network, it
// orders aligned blocks of the largest power of two ≤ block. Occupied
// registers gather at the front of each block in less order, stable on
// ties; empty ones at the tail. less must be a strict weak order: where
// it is not — near-ties inside ratfun's cancellation tolerance make
// RatFun.Cmp and the direction comparisons non-transitive — the order of
// the affected items is unspecified.
func SortBlocksCols[T any](m *M, f colstore.File[T], block int, less func(a, b T) bool) {
	defer closeSpan(pspan(m, "sort", block))
	if block >= 2 {
		orderBlocks(m, f, 1<<(bits.Len(uint(block))-1), false, less)
	}
	chargeSortRounds(m, f.Len(), block)
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

// ShiftWithinCols returns what each PE receives when every PE sends its
// register to PE i+delta, with transfers confined to aligned blocks of
// the given size (one shift communication round). The result file is
// drawn from the machine's arena: release it with PutCols when done to
// keep the enclosing loop allocation-free (or simply drop it — an
// unreleased buffer is garbage-collected).
func ShiftWithinCols[T any](m *M, f colstore.File[T], block, delta int) colstore.File[T] {
	n := f.Len()
	out := GetCols[T](m, n)
	msgs := 0
	for i := 0; i < n; i++ {
		j := i - delta // the PE whose value lands here
		if j < 0 || j >= n || j/block != i/block || !f.Occ[j] {
			continue
		}
		out.Val[i], out.Occ[i] = f.Val[j], true
		msgs++
	}
	ChargeShift(m, delta, msgs)
	return out
}
