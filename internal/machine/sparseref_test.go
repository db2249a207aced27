package machine

// Sparse active-set rounds, kept as test code: a second, occupancy-
// proportional implementation of the whole-machine primitives that the
// dense primitives of colops.go and the charge-only entry points of
// charges.go are cross-checked against. No production path uses an
// active set — penvelope's packed merge levels, the one occupancy-
// proportional caller, charge through charges.go directly — so the API
// lives here, beside its differential tests (sparse_test.go).
//
// A Sparse[T] register file couples the columnar layout (colstore.File)
// with the sorted list of occupied indices, and the primitives below do
// host work proportional to the active set while charging the machine
// EXACTLY what the dense whole-machine primitive charges: the simulated
// cost model describes a physical SIMD machine whose rounds run over all
// n PEs regardless of occupancy, so Stats — rounds, comm steps, local
// steps, and message counts — are occupancy-independent for the
// scan/sort round structures used here and are reproduced closed-form
// (a compare-exchange round on pair mask `mask` moves
// 2·pairCount(n, mask) messages). Dense and sparse primitives take
// their charges from the same charge-only entry points (charges.go):
// ChargeScan, ChargeSort, ChargeCompact, ChargeShift. A scan
// round at offset `off` carries Σ_segments max(0, L − off) messages,
// which for the whole machine as one string is n − off. Answer-and-Stats
// identity with the dense primitives is pinned by the property tests and
// FuzzActiveSetRounds in sparse_test.go.
//
// Semantics and restrictions:
//
//   - All sparse primitives operate on the whole machine as a single
//     string (segStart = WholeMachine(n)); segmented variants would need
//     per-segment active tracking that no current caller wants.
//   - Results are identical to the dense primitive under masked
//     comparison: equal occupancy and equal values wherever occupied.
//     (Dense scans propagate stale bytes of empty registers; a sparse
//     file does not track stale bytes at all.) Sort runs the dense
//     sort's host kernel over the active list, so both are stable on
//     ties and agree on every comparator.
//   - Work bounds are per-primitive: Sort, Compact, ShiftWithin and
//     Route do O(k·polylog) host work for k active items. Scan, Spread
//     and Semigroup are O(final occupied): their results genuinely
//     occupy every PE from the first active index onward (scans flood),
//     which is a property of the operation, not the layout.
//
// Charging discipline matches colops.go: charges and observer
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

// wholeShape is the scan shape of the whole machine as one string.
func wholeShape(n int) ScanShape {
	var h ScanShape
	h.AddBlocks(n, n)
	return h
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
	whole := wholeShape(n)
	ChargeScan(m, n, &whole)
}

// SparseSpread is the whole-machine broadcast over a sparse file — dense
// counterpart Spread. Every PE receives a value (the forward flood wins
// where both reach), so the result is fully dense when any register is
// occupied.
func SparseSpread[T any](m *M, s *Sparse[T]) {
	n := s.Len()
	defer closeSpan(pspan(m, "broadcast", n))
	whole := wholeShape(n)
	ChargeScan(m, n, &whole) // forward flood of the copy
	ChargeScan(m, n, &whole) // backward flood in place
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
	whole := wholeShape(n)
	ChargeScan(m, n, &whole) // forward op scan
	m.ChargeLocal(1)         // mark each string's last PE
	ChargeScan(m, n, &whole) // backward flood of the totals
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

// SparseSort sorts the whole machine — dense counterpart SortCols —
// with the dense sort's host kernel run over the active list: O(k log k)
// comparisons for k active items, stable on ties, charged through
// ChargeSort.
func SparseSort[T any](m *M, s *Sparse[T], less func(a, b T) bool) {
	n := s.Len()
	if k := len(s.act); k > 0 && n >= 2 {
		top := 1 << (bits.Len(uint(n)) - 1) // the blocks SortCols orders
		buf := GetScratch[int32](m, 2*k)
		copy(buf, s.act)
		orderRuns(s.f.Val, s.f.Occ, buf[:k], buf[k:], top, false, less)
		PutScratch(m, buf)
		// Each block's items now fill the front of the block.
		lo, r := -1, 0
		for j, p := range s.act {
			if b := int(p) &^ (top - 1); b != lo {
				lo, r = b, 0
			}
			s.act[j] = int32(lo + r)
			r++
		}
	}
	ChargeSort(m, n)
}

// SparseCompact packs the active items to the front of the machine,
// preserving order — dense counterpart Compact on the whole machine.
// Host work O(k).
func SparseCompact[T any](m *M, s *Sparse[T]) {
	n := s.Len()
	k := len(s.act)
	src := GetScratch[int](m, k)
	dst := GetScratch[int](m, k)
	for idx, p := range s.act {
		src[idx] = int(p)
		dst[idx] = idx
	}
	whole := wholeShape(n)
	ChargeCompact(m, n, &whole, src, dst)
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
