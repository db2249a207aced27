package machine

// Charge-only entry points. Each function below emits exactly the span
// and round stream of one dense primitive — the same Stats, the same
// observer events, the same injector consultations — without touching
// a register file. The dense primitives of colops.go take their charges
// from these functions, so each charge formula exists once; callers that compute a primitive's
// registers with host-efficient code of their own (penvelope's packed
// Lemma 3.1 levels) charge the machine through them too, and so do
// callers that sort only to charge the machine (ChargeSort). Agreement with
// the round-by-round reference kernels is pinned by
// TestChargeHelpersMatchDense.

import "math/bits"

// ScanShape is the segment-length histogram a parallel prefix's charges
// are computed from: bucket b holds the segments of length L with
// ⌈log₂ L⌉ = b, i.e. exactly those that take part in the doubling
// rounds at offsets 1, 2, …, 2^(b−1). cnt counts the segments, sum adds
// up their lengths. The zero value is the shape of an empty machine.
type ScanShape struct {
	cnt, sum [bits.UintSize + 1]int
}

// Add records one segment of length l ≥ 1.
func (h *ScanShape) Add(l int) {
	b := bits.Len(uint(l - 1))
	h.cnt[b]++
	h.sum[b] += l
}

// AddBlocks records the segments of BlockSegments(n, block): n/block
// aligned segments of the given length plus the shorter remainder, in
// O(1). A block of at least n (or ≤ 0) is the whole machine as one
// string.
func (h *ScanShape) AddBlocks(n, block int) {
	if n <= 0 {
		return
	}
	if block <= 0 || block > n {
		block = n
	}
	full := n / block
	b := bits.Len(uint(block - 1))
	h.cnt[b] += full
	h.sum[b] += full * block
	if r := n - full*block; r > 0 {
		h.Add(r)
	}
}

// chargeScanRounds charges the rounds of a Hillis–Steele doubling scan
// over the segments in h, in the order the doubling runs them: one shift
// round per offset off = 1, 2, 4, … below the longest segment, carrying
// Σ_segments max(0, L − off) messages — PE i receives from i ∓ off iff
// both lie in the same segment (the boundary flag that stops a PE has
// spread over exactly off PEs after the rounds below off). The whole
// machine as one string is the case of a single segment of length n.
func chargeScanRounds(m *M, h *ScanShape) {
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

// ChargeScan charges what ScanCols charges on an n-PE file whose segment
// mask has the given shape: the "prefix" span and the doubling rounds.
// The charge does not depend on direction, op or occupancy.
func ChargeScan(m *M, n int, shape *ScanShape) {
	defer closeSpan(pspan(m, "prefix", n))
	chargeScanRounds(m, shape)
}

// ChargeShift charges one ShiftWithinCols round: every PE sends its
// register delta PEs onward, and msgs of those transfers land inside
// their block on an occupied source.
func ChargeShift(m *M, delta, msgs int) { m.chargeShift(delta, msgs) }

// ChargeMergeBlocks charges what MergeBlocksCols(m, f, block, less)
// charges on an n-PE file: the "merge" span, then one XOR round per
// compare-exchange mask block−1, block/4, …, 1, each along the mask's
// highest bit and carrying 2·pairCount(n, mask) messages — a pair
// exchanges its two registers whether or not they are occupied. block
// must be a power of two or cover the whole machine (every caller's
// blocks are), so that no pair straddles a block boundary.
func ChargeMergeBlocks(m *M, n, block int) {
	if block < 2 {
		return
	}
	defer closeSpan(pspan(m, "merge", block))
	chargeCE(m, n, block-1)
	for mask := block / 4; mask >= 1; mask /= 2 {
		chargeCE(m, n, mask)
	}
}

// ChargeSort charges what SortCols charges on an n-PE file: the "sort"
// span and the bitonic merges of sub-blocks 2, 4, …, n. A caller that
// sorts only to charge the machine calls this instead.
func ChargeSort(m *M, n int) {
	defer closeSpan(pspan(m, "sort", n))
	chargeSortRounds(m, n, n)
}

// chargeSortRounds charges the merges of SortBlocksCols(m, f, block, ·)
// on an n-PE file.
func chargeSortRounds(m *M, n, block int) {
	for sub := 2; sub <= block; sub *= 2 {
		ChargeMergeBlocks(m, n, sub)
	}
}

// chargeCE charges one compare-exchange round between PEs i and i ⊕ mask.
func chargeCE(m *M, n, mask int) {
	m.chargeXOR(bits.Len(uint(mask))-1, 2*pairCount(n, mask))
}

// ChargeCompact charges what CompactCols charges on an n-PE file whose
// segment mask has the given shape, when the occupied register at src[k]
// moves to dst[k]: the "compact" span holding a local phase, the rank
// prefix, a local phase, the segment-base flood, and one structured
// route.
func ChargeCompact(m *M, n int, shape *ScanShape, src, dst []int) {
	defer closeSpan(pspan(m, "compact", n))
	m.ChargeLocal(1) // write the 0/1 occupancy ranks
	ChargeScan(m, n, shape)
	m.ChargeLocal(1) // mark each segment's base index
	ChargeScan(m, n, shape)
	m.ChargeRoute(src, dst)
}

// countBothBelow counts the x in [0, n) with x ⊕ mask also in [0, n), by
// a two-tightness digit walk over the bits of n — O(log² n), no scan of
// the index space.
func countBothBelow(n, mask int) int {
	if n <= 0 {
		return 0
	}
	nb := bits.Len(uint(n | mask)) // cover mask bits above n's width too
	var rec func(k int, ta, tb bool) int
	rec = func(k int, ta, tb bool) int {
		if !ta && !tb {
			// Both x and x⊕mask are already strictly below n on a higher
			// bit; every completion of the remaining k+1 bits is valid.
			return 1 << (k + 1)
		}
		if k < 0 {
			return 0 // a still-tight prefix means the value equals n
		}
		nk := (n >> k) & 1
		mk := (mask >> k) & 1
		total := 0
		for xk := 0; xk <= 1; xk++ {
			yk := xk ^ mk
			if ta && xk > nk || tb && yk > nk {
				continue
			}
			total += rec(k-1, ta && xk == nk, tb && yk == nk)
		}
		return total
	}
	return rec(nb-1, true, true)
}

// pairCount returns the number of PE pairs (i, i ⊕ mask) with both ends
// on an n-PE machine — the pair population of one compare-exchange
// round. When n is a multiple of the power of two above mask, ⊕ mask
// stays inside aligned groups that lie wholly on the machine, so every
// PE has its partner and the count is n/2 without the digit walk.
func pairCount(n, mask int) int {
	if mask <= 0 {
		return 0
	}
	if n%(1<<bits.Len(uint(mask))) == 0 {
		return n / 2
	}
	return countBothBelow(n, mask) / 2
}
