package machine

// This file is the columnar core of the simulator: every Table-1 data
// movement primitive implemented over struct-of-arrays register files
// (colstore.File — parallel Val/Occ slices) instead of per-PE []Reg[T]
// records. Round bodies are flat loops over two contiguous slices, which
// is what lets the compiler keep them bounds-check-light, keeps per-PE
// work free of record shuffling, and shards cleanly under internal/par.
// The legacy []Reg[T] entry points in ops.go are thin split/run/join
// wrappers over these functions, so both layouts execute the exact same
// round structure and charge the exact same Stats — bit-identity is
// structural, not re-proved per primitive (and is pinned end to end by
// the columnardiff battery in the repository root).
//
// The charging discipline is unchanged from ops.go: round bodies never
// touch the machine; all chargeXOR/chargeShift/ChargeLocal/ChargeRoute
// calls happen on the owning goroutine between rounds, so serial and
// sharded execution stay bit-identical. Scratch discipline is unchanged
// too: every primitive draws its O(n) scratch from the machine's arena
// and releases it before returning (a File is two arena buffers — see
// GetCols/PutCols).
//
// The parallel prefix is the one primitive whose host work does not
// follow its round structure: the doubling scan would cost the host
// O(n log n), so ScanCols computes the same registers with one O(n)
// sequential fold and charges the doubling's rounds in closed form. The
// doubling kernel survives as the test oracle in scanref_test.go.

import (
	"math/bits"

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

// splitRegs copies a record-layout register file into a columnar file
// drawn from the arena. It is the entry bridge of the legacy wrappers.
func splitRegs[T any](m *M, regs []Reg[T]) colstore.File[T] {
	f := GetCols[T](m, len(regs))
	for i := range regs {
		f.Val[i] = regs[i].V
		f.Occ[i] = regs[i].Ok
	}
	return f
}

// joinRegs copies a columnar file back into a record-layout register
// file, stale values of empty registers included — the wrappers must be
// byte-identical to the old record implementation, which propagated
// those bytes through swaps and copies.
func joinRegs[T any](f colstore.File[T], regs []Reg[T]) {
	for i := range regs {
		regs[i] = Reg[T]{V: f.Val[i], Ok: f.Occ[i]}
	}
}

// --- Parallel prefix (segmented scan) -------------------------------------

// scanHist is the segment-length histogram a scan's charges are computed
// from: bucket b holds the segments of length L with ⌈log₂ L⌉ = b, i.e.
// exactly those that take part in the doubling rounds at offsets
// 1, 2, …, 2^(b−1). cnt counts the segments, sum adds up their lengths.
type scanHist struct {
	cnt, sum [bits.UintSize + 1]int
}

// add records one segment of length l ≥ 1.
func (h *scanHist) add(l int) {
	b := bits.Len(uint(l - 1))
	h.cnt[b]++
	h.sum[b] += l
}

// chargeScanRounds charges the rounds of a Hillis–Steele doubling scan
// over the segments in h, in the order the doubling runs them: one shift
// round per offset off = 1, 2, 4, … below the longest segment, carrying
// Σ_segments max(0, L − off) messages — PE i receives from i ∓ off iff
// both lie in the same segment (the boundary flag that stops a PE has
// spread over exactly off PEs after the rounds below off). The whole
// machine as one string is the case of a single segment of length n.
func chargeScanRounds(m *M, h *scanHist) {
	c, s := 0, 0
	for b := range h.cnt {
		c += h.cnt[b]
		s += h.sum[b]
	}
	for b := 0; ; b++ {
		// Segments with ⌈log₂ L⌉ ≤ b are shorter than or equal to
		// off = 2^b and send nothing from this round on.
		c -= h.cnt[b]
		s -= h.sum[b]
		if c == 0 {
			return
		}
		off := 1 << b
		m.chargeShift(off, s-off*c)
	}
}

// scanForward is the host pass of a forward segmented scan: a left fold
// acc = op(acc, x) per segment. An empty register is an identity and
// keeps its stale bytes until the segment's first occupied PE reaches
// it; a nil op keeps the first occupied value (flood). It records the
// segment lengths into h.
func scanForward[T any](val []T, occ, segStart []bool, op func(a, b T) T, h *scanHist) {
	n := len(val)
	var acc T
	have := false
	start := 0
	for i := 0; i < n; i++ {
		if segStart[i] && i > start {
			h.add(i - start)
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
		h.add(n - start)
	}
}

// scanBackward is scanForward mirrored: a right fold acc = op(x, acc)
// per segment, run from each segment's last PE down to its first.
func scanBackward[T any](val []T, occ, segStart []bool, op func(a, b T) T, h *scanHist) {
	n := len(val)
	var acc T
	have := false
	end := n
	for i := n - 1; i >= 0; i-- {
		if i+1 < end && segStart[i+1] {
			h.add(end - i - 1)
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
		h.add(end)
	}
}

// ScanCols is the columnar segmented inclusive scan — see Scan in ops.go
// for the cost model, the flood (nil-op) mode and the associativity
// requirement on op. The host does one O(n) pass and then charges the
// rounds of the Θ(log n)-round doubling scan in closed form.
func ScanCols[T any](m *M, f colstore.File[T], segStart []bool, dir ScanDir, op func(a, b T) T) {
	defer closeSpan(pspan(m, "prefix", f.Len()))
	var h scanHist
	if dir == Forward {
		scanForward(f.Val, f.Occ, segStart, op, &h)
	} else {
		scanBackward(f.Val, f.Occ, segStart, op, &h)
	}
	chargeScanRounds(m, &h)
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

// SpreadCols is the columnar broadcast of §2.6 — see Spread in ops.go.
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

// SemigroupCols is the columnar semigroup computation of §2.6 — see
// Semigroup in ops.go; op must be associative (see Scan).
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

// ceRoundCols is the columnar per-PE body of one compare-exchange round;
// each pair (i, i ⊕ mask) is handled from its smaller index, so writes
// stay disjoint across shards. Transliteration of ceRound+regLess:
// occupied registers sort before empty ones, and swaps exchange the full
// register — stale values of empty registers included.
func ceRoundCols[T any](val []T, occ []bool, mask, block int, less func(a, b T) bool, lo, hi int) int {
	n := len(val)
	msgs := 0
	for i := lo; i < hi; i++ {
		j := i ^ mask
		if j <= i || j >= n || i/block != j/block {
			continue
		}
		msgs += 2
		if (occ[j] && !occ[i]) || (occ[j] && occ[i] && less(val[j], val[i])) {
			val[i], val[j] = val[j], val[i]
			occ[i], occ[j] = occ[j], occ[i]
		}
	}
	return msgs
}

// compareExchangeCols performs one lock-step compare-exchange round over
// a columnar file — see compareExchange in ops.go.
func compareExchangeCols[T any](m *M, f colstore.File[T], mask, block int, less func(a, b T) bool) {
	n := f.Len()
	var msgs int
	if m.workers > 1 {
		msgs = par.Reduce(m.workers, n, 0, func(lo, hi int) int {
			return ceRoundCols(f.Val, f.Occ, mask, block, less, lo, hi)
		}, addInt)
	} else {
		msgs = ceRoundCols(f.Val, f.Occ, mask, block, less, 0, n)
	}
	b := 0
	for 1<<(b+1) <= mask {
		b++
	}
	m.chargeXOR(b, msgs)
}

// MergeBlocksCols is the columnar block merge of §2.6 — see MergeBlocks
// in ops.go.
func MergeBlocksCols[T any](m *M, f colstore.File[T], block int, less func(a, b T) bool) {
	if block < 2 {
		return
	}
	defer closeSpan(pspan(m, "merge", block))
	compareExchangeCols(m, f, block-1, block, less)
	for mask := block / 4; mask >= 1; mask /= 2 {
		compareExchangeCols(m, f, mask, block, less)
	}
}

// SortBlocksCols is the columnar bitonic block sort — see SortBlocks in
// ops.go. Empty registers gather at the tail of each block.
func SortBlocksCols[T any](m *M, f colstore.File[T], block int, less func(a, b T) bool) {
	defer closeSpan(pspan(m, "sort", block))
	for sub := 2; sub <= block; sub *= 2 {
		MergeBlocksCols(m, f, sub, less)
	}
}

// SortCols sorts the whole machine (one string) in columnar layout.
func SortCols[T any](m *M, f colstore.File[T], less func(a, b T) bool) {
	SortBlocksCols(m, f, f.Len(), less)
}

// --- Routing-based operations ----------------------------------------------

// rankOccupiedCols writes each PE's occupancy count (0/1) for the rank
// prefix of CompactCols. PE i writes only index i of counts.
func rankOccupiedCols(counts colstore.File[int], occ []bool, lo, hi int) {
	for i := lo; i < hi; i++ {
		c := 0
		if occ[i] {
			c = 1
		}
		counts.Val[i], counts.Occ[i] = c, true
	}
}

// markSegBaseCols records each segment start's own index. PE i writes
// only index i of segBase.
func markSegBaseCols(segBase colstore.File[int], segStart []bool, lo, hi int) {
	for i := lo; i < hi; i++ {
		if segStart[i] {
			segBase.Val[i], segBase.Occ[i] = i, true
		}
	}
}

// CompactCols is the columnar order-preserving segment compaction — see
// Compact in ops.go. Vacated registers are left empty with zeroed values.
func CompactCols[T any](m *M, f colstore.File[T], segStart []bool) {
	defer closeSpan(pspan(m, "compact", f.Len()))
	n := f.Len()
	counts := GetCols[int](m, n)
	m.ChargeLocal(1)
	if m.workers > 1 {
		par.ForEach(m.workers, n, func(lo, hi int) {
			rankOccupiedCols(counts, f.Occ, lo, hi)
		})
	} else {
		rankOccupiedCols(counts, f.Occ, 0, n)
	}
	ScanCols(m, counts, segStart, Forward, addInt)
	segBase := GetCols[int](m, n)
	m.ChargeLocal(1)
	if m.workers > 1 {
		par.ForEach(m.workers, n, func(lo, hi int) {
			markSegBaseCols(segBase, segStart, lo, hi)
		})
	} else {
		markSegBaseCols(segBase, segStart, 0, n)
	}
	ScanCols(m, segBase, segStart, Forward, nil)
	out := GetCols[T](m, n)
	src := GetScratch[int](m, n)[:0]
	dst := GetScratch[int](m, n)[:0]
	for i := 0; i < n; i++ {
		if !f.Occ[i] {
			continue
		}
		d := segBase.Val[i] + counts.Val[i] - 1
		src = append(src, i)
		dst = append(dst, d)
		out.Val[d], out.Occ[d] = f.Val[i], true
	}
	m.ChargeRoute(src, dst)
	f.CopyFrom(out)
	PutScratch(m, dst)
	PutScratch(m, src)
	PutCols(m, out)
	PutCols(m, segBase)
	PutCols(m, counts)
}

// RouteCols moves item i to dest[i] (−1 to drop) in columnar layout —
// see Route in ops.go. dest must be injective.
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

// shiftRoundCols is the columnar per-PE body of ShiftWithinCols: PE i
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
// register to PE i+delta within aligned blocks — see ShiftWithin in
// ops.go. The result file is drawn from the machine's arena; release it
// with PutCols when done (or drop it).
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
	m.chargeShift(delta, msgs)
	return out
}
