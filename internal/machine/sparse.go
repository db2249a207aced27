package machine

// Sparse active-set rounds. A production-scale machine (n = 1<<20 and
// beyond) usually carries far fewer data items than PEs — a session
// holding 5k points on a 1M-PE hypercube would pay O(n) host work per
// round under the dense primitives just to skip empty registers. A
// Sparse[T] register file couples the columnar layout (colstore.File)
// with the sorted list of occupied indices, and the primitives below do
// host work proportional to the active set while charging the machine
// EXACTLY what the dense whole-machine primitive charges: the simulated
// cost model describes a physical SIMD machine whose rounds run over all
// n PEs regardless of occupancy, so Stats — rounds, comm steps, local
// steps, and message counts — are occupancy-independent for the
// scan/sort round structures used here and are reproduced closed-form
// (a compare-exchange round on pair mask `mask` moves
// 2·pairCount(n, mask) messages). Dense and sparse scans share one
// charge formula, chargeScanRounds in colops.go: a scan round at offset
// `off` carries Σ_segments max(0, L − off) messages, which for the whole
// machine as one string is n − off. Answer-and-Stats identity with the
// dense primitives is pinned by the property tests and
// FuzzActiveSetRounds in sparse_test.go.
//
// Semantics and restrictions:
//
//   - All sparse primitives operate on the whole machine as a single
//     string (segStart = WholeMachine(n)); segmented variants would need
//     per-segment active tracking that no current caller wants.
//   - Results are identical to the dense primitive under masked
//     comparison: equal occupancy and equal values wherever occupied.
//     (Dense primitives propagate stale bytes of empty registers through
//     swaps; a sparse file does not track stale bytes at all.)
//   - Work bounds are per-primitive: Sort, Compact, ShiftWithin and
//     Route do O(k·polylog) host work for k active items. Scan, Spread
//     and Semigroup are O(final occupied): their results genuinely
//     occupy every PE from the first active index onward (scans flood),
//     which is a property of the operation, not the layout.
//
// Charging discipline matches ops.go/colops.go: charges and observer
// events are emitted in the same order as the dense implementation, so
// an attached tracer sees a bit-identical span/round stream.

import (
	"math/bits"
	"slices"

	"dyncg/internal/colstore"
)

// Sparse is an active-set register file: a columnar file plus the sorted
// indices of its occupied registers.
type Sparse[T any] struct {
	f   colstore.File[T]
	act []int32 // ascending indices of occupied registers
}

// NewSparse returns an empty sparse file over n PEs. The active list is
// pre-sized to n so primitive calls never reallocate it.
func NewSparse[T any](n int) *Sparse[T] {
	return &Sparse[T]{f: colstore.New[T](n), act: make([]int32, 0, n)}
}

// SparseScatter places vals one per PE from PE 0 upward (the paper's
// input convention), like Scatter/colstore.Scatter.
func SparseScatter[T any](n int, vals []T) *Sparse[T] {
	s := NewSparse[T](n)
	for i, v := range vals {
		s.Set(i, v)
	}
	return s
}

// Len returns the number of PEs the file spans.
func (s *Sparse[T]) Len() int { return s.f.Len() }

// Count returns the number of occupied registers (O(1)).
func (s *Sparse[T]) Count() int { return len(s.act) }

// Get returns PE i's value and occupancy.
func (s *Sparse[T]) Get(i int) (T, bool) { return s.f.Get(i) }

// Set stores v into PE i's register, inserting i into the active list if
// the register was empty (O(k) worst case for the insertion shift).
func (s *Sparse[T]) Set(i int, v T) {
	if !s.f.Occ[i] {
		at, _ := slices.BinarySearch(s.act, int32(i))
		s.act = slices.Insert(s.act, at, int32(i))
	}
	s.f.Set(i, v)
}

// Clear empties PE i's register.
func (s *Sparse[T]) Clear(i int) {
	if s.f.Occ[i] {
		at, _ := slices.BinarySearch(s.act, int32(i))
		s.act = slices.Delete(s.act, at, at+1)
	}
	s.f.Clear(i)
}

// Active returns the ascending occupied indices. The slice is owned by
// the file: callers must not mutate it and must re-fetch it after any
// primitive call.
func (s *Sparse[T]) Active() []int32 { return s.act }

// File returns the underlying columnar file (values of empty registers
// are unspecified — compare with colstore.Equal/EqualFunc, which mask).
func (s *Sparse[T]) File() colstore.File[T] { return s.f }

// Gather returns the occupied values in index order.
func (s *Sparse[T]) Gather() []T {
	out := make([]T, 0, len(s.act))
	for _, p := range s.act {
		out = append(out, s.f.Val[p])
	}
	return out
}

// rebuildRange resets the active list to the contiguous index range
// [lo, hi).
func (s *Sparse[T]) rebuildRange(lo, hi int) {
	s.act = s.act[:0]
	for i := lo; i < hi; i++ {
		s.act = append(s.act, int32(i))
	}
}

// sparseScanCharges emits the exact charge stream of a dense
// whole-machine scan over n PEs: one span, and the doubling rounds of a
// single segment of length n (chargeScanRounds), whose message count at
// offset off is n − off.
func sparseScanCharges(m *M, n int) {
	defer closeSpan(pspan(m, "prefix", n))
	var h scanHist
	if n > 0 {
		h.add(n)
	}
	chargeScanRounds(m, &h)
}

// SparseScan is the whole-machine inclusive scan over a sparse file —
// dense counterpart Scan with segStart = WholeMachine(n). Empty
// registers are identities; a nil op floods (the string-boundary-side
// value wins). Note the flood result: every PE from the first active
// index onward (Forward) or up to the last active index (Backward)
// becomes occupied, so the active set densifies to a suffix/prefix —
// host work is O(final occupied).
func SparseScan[T any](m *M, s *Sparse[T], dir ScanDir, op func(a, b T) T) {
	n := s.Len()
	if k := len(s.act); k > 0 {
		val := s.f.Val
		if dir == Forward {
			first := int(s.act[0])
			ai := 0
			var acc T
			for i := first; i < n; i++ {
				if ai < k && int(s.act[ai]) == i {
					if ai == 0 {
						acc = val[i]
					} else if op != nil {
						acc = op(acc, val[i]) // prefix ∗ local
					}
					ai++
				}
				val[i] = acc
				s.f.Occ[i] = true
			}
			s.rebuildRange(first, n)
		} else {
			last := int(s.act[k-1])
			ai := k - 1
			var acc T
			for i := last; i >= 0; i-- {
				if ai >= 0 && int(s.act[ai]) == i {
					if ai == k-1 {
						acc = val[i]
					} else if op != nil {
						acc = op(val[i], acc) // local ∗ suffix
					}
					ai--
				}
				val[i] = acc
				s.f.Occ[i] = true
			}
			s.rebuildRange(0, last+1)
		}
	}
	sparseScanCharges(m, n)
}

// SparseSpread is the whole-machine broadcast over a sparse file — dense
// counterpart Spread. Every PE receives a value (the forward flood wins
// where both reach), so the result is fully dense when any register is
// occupied.
func SparseSpread[T any](m *M, s *Sparse[T]) {
	n := s.Len()
	defer closeSpan(pspan(m, "broadcast", n))
	sparseScanCharges(m, n) // forward flood of the copy
	sparseScanCharges(m, n) // backward flood in place
	m.ChargeLocal(1)
	if k := len(s.act); k > 0 {
		first, last := int(s.act[0]), int(s.act[k-1])
		firstVal, lastVal := s.f.Val[first], s.f.Val[last]
		for i := 0; i < first; i++ {
			s.f.Val[i] = lastVal // only the backward flood reaches here
			s.f.Occ[i] = true
		}
		for i := first; i < n; i++ {
			s.f.Val[i] = firstVal // forward flood preferred
			s.f.Occ[i] = true
		}
		s.rebuildRange(0, n)
	}
}

// SparseSemigroup delivers the op-reduction of all items to every PE —
// dense counterpart Semigroup on the whole machine. The result is fully
// dense when any register is occupied.
func SparseSemigroup[T any](m *M, s *Sparse[T], op func(a, b T) T) {
	n := s.Len()
	defer closeSpan(pspan(m, "semigroup", n))
	sparseScanCharges(m, n) // forward op scan
	m.ChargeLocal(1)        // mark each string's last PE
	sparseScanCharges(m, n) // backward flood of the totals
	if k := len(s.act); k > 0 {
		total := s.f.Val[s.act[0]]
		for _, p := range s.act[1:] {
			total = op(total, s.f.Val[p])
		}
		for i := 0; i < n; i++ {
			s.f.Val[i] = total
			s.f.Occ[i] = true
		}
		s.rebuildRange(0, n)
	}
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
// on an n-PE machine — the pair population of one dense compare-exchange
// round (each pair exchanges 2 messages regardless of occupancy). The
// same-block constraint of SortBlocks is vacuous here because every
// mask used is smaller than its (power-of-two) block.
func pairCount(n, mask int) int {
	if mask <= 0 {
		return 0
	}
	return countBothBelow(n, mask) / 2
}

// sparseCE runs one compare-exchange round on the active items only:
// each pair with at least one occupied member is resolved exactly as the
// dense round resolves it (occupied registers sort before empty ones),
// and pairs of two empty registers are no-ops the host skips. snap must
// hold the pre-round active list; the post-round list is rebuilt into
// s.act.
func (s *Sparse[T]) sparseCE(m *M, mask, block int, less func(a, b T) bool, snap []int32) {
	n := s.Len()
	val, occ := s.f.Val, s.f.Occ
	newAct := s.act[:0]
	moved := false
	for _, p32 := range snap {
		p := int(p32)
		q := p ^ mask
		if q >= n || p/block != q/block {
			newAct = append(newAct, p32) // no partner on the machine
			continue
		}
		if q > p {
			// First visit of the pair. Both occupied: order them (smaller
			// value to the smaller index). Partner empty: regLess(empty,
			// occupied) is false, so the item stays put.
			if occ[q] && less(val[q], val[p]) {
				val[p], val[q] = val[q], val[p]
			}
			newAct = append(newAct, p32)
			continue
		}
		// q < p: if q is occupied the pair was resolved at q's visit
		// (both-occupied swaps exchange values, not occupancy). If q is
		// empty, the dense round swaps the occupied register down:
		// regLess(occupied@p, empty@q) holds.
		if occ[q] {
			newAct = append(newAct, p32)
			continue
		}
		val[q] = val[p]
		occ[q] = true
		occ[p] = false
		newAct = append(newAct, int32(q))
		moved = true
	}
	if moved {
		slices.Sort(newAct)
	}
	s.act = newAct
	b := 0
	for 1<<(b+1) <= mask {
		b++
	}
	m.chargeXOR(b, 2*pairCount(n, mask))
}

// sparseMergeBlocks mirrors MergeBlocksCols round for round.
func sparseMergeBlocks[T any](m *M, s *Sparse[T], block int, less func(a, b T) bool, snap []int32) {
	if block < 2 {
		return
	}
	defer closeSpan(pspan(m, "merge", block))
	snap = append(snap[:0], s.act...)
	s.sparseCE(m, block-1, block, less, snap)
	for mask := block / 4; mask >= 1; mask /= 2 {
		snap = append(snap[:0], s.act...)
		s.sparseCE(m, mask, block, less, snap)
	}
}

// SparseSort sorts the whole machine — dense counterpart Sort. The k
// active items ride the exact bitonic round schedule of the dense sort
// (so ties land in the same slots the unstable dense network puts them
// in), but each round costs the host O(k) plus an O(k log k) re-sort of
// the active list, not O(n).
func SparseSort[T any](m *M, s *Sparse[T], less func(a, b T) bool) {
	n := s.Len()
	defer closeSpan(pspan(m, "sort", n))
	snap := GetScratch[int32](m, len(s.act))
	for sub := 2; sub <= n; sub *= 2 {
		sparseMergeBlocks(m, s, sub, less, snap)
	}
	PutScratch(m, snap)
}

// SparseCompact packs the active items to the front of the machine,
// preserving order — dense counterpart Compact on the whole machine.
// Host work O(k).
func SparseCompact[T any](m *M, s *Sparse[T]) {
	n := s.Len()
	defer closeSpan(pspan(m, "compact", n))
	k := len(s.act)
	m.ChargeLocal(1)        // write the 0/1 occupancy ranks
	sparseScanCharges(m, n) // rank prefix sums
	m.ChargeLocal(1)        // mark the segment base
	sparseScanCharges(m, n) // flood the base index
	src := GetScratch[int](m, k)
	dst := GetScratch[int](m, k)
	for idx, p := range s.act {
		src[idx] = int(p)
		dst[idx] = idx
	}
	m.ChargeRoute(src, dst)
	val, occ := s.f.Val, s.f.Occ
	for idx, p := range s.act {
		val[idx] = val[p] // idx ≤ p: ascending in-place move is safe
	}
	for _, p := range s.act {
		if int(p) >= k {
			occ[p] = false
		}
	}
	for i := 0; i < k; i++ {
		occ[i] = true
	}
	PutScratch(m, dst)
	PutScratch(m, src)
	s.rebuildRange(0, k)
}

// SparseShiftWithin shifts every item to PE i+delta within aligned
// blocks of the given size, in place — dense counterpart ShiftWithin
// (which writes a fresh output file instead). Items shifted across a
// block boundary or off the machine are dropped. Host work O(k).
func SparseShiftWithin[T any](m *M, s *Sparse[T], block, delta int) {
	n := s.Len()
	k := len(s.act)
	pos := GetScratch[int32](m, k)[:0]
	tmp := GetScratch[T](m, k)[:0]
	val, occ := s.f.Val, s.f.Occ
	for _, p32 := range s.act {
		p := int(p32)
		q := p + delta
		if q < 0 || q >= n || q/block != p/block {
			continue
		}
		pos = append(pos, int32(q))
		tmp = append(tmp, val[p])
	}
	for _, p := range s.act {
		occ[p] = false
	}
	for idx, q := range pos {
		val[q] = tmp[idx]
		occ[q] = true
	}
	s.act = append(s.act[:0], pos...) // ascending order is preserved
	m.chargeShift(delta, len(pos))
	PutScratch(m, tmp)
	PutScratch(m, pos)
}

// SparseRoute moves the item at PE i to dest[i] (−1 to drop) — dense
// counterpart Route. dest must be injective on the active indices; only
// the active entries of dest are read, so host work is O(k log k).
func SparseRoute[T any](m *M, s *Sparse[T], dest []int) {
	n := s.Len()
	defer closeSpan(pspan(m, "route", n))
	k := len(s.act)
	src := GetScratch[int](m, k)[:0]
	dst := GetScratch[int](m, k)[:0]
	tmp := GetScratch[T](m, k)[:0]
	val, occ := s.f.Val, s.f.Occ
	for _, p32 := range s.act {
		p := int(p32)
		if dest[p] < 0 {
			continue
		}
		src = append(src, p)
		dst = append(dst, dest[p])
		tmp = append(tmp, val[p])
	}
	// Vacate every old position — items routed to −1 are dropped, like
	// the dense Route — before landing the moved items.
	for _, p := range s.act {
		occ[p] = false
	}
	newAct := s.act[:0]
	for _, d := range dst {
		newAct = append(newAct, int32(d))
	}
	slices.Sort(newAct)
	for i := 1; i < len(newAct); i++ {
		if newAct[i] == newAct[i-1] {
			panic("machine: Route destination collision")
		}
	}
	m.ChargeRoute(src, dst)
	for idx, d := range dst {
		val[d] = tmp[idx]
		occ[d] = true
	}
	s.act = newAct
	PutScratch(m, tmp)
	PutScratch(m, dst)
	PutScratch(m, src)
}
