// Package colstore provides the register layout of the machine
// simulator, the only one it has. A File[T] keeps the values and the
// occupancy mask in two parallel flat slices, so round bodies in
// internal/machine are tight loops over contiguous memory — bounds-check
// friendly, with no per-element struct shuffling.
//
// The package is deliberately machine-free: it owns the layout and its
// pure-data helpers (scatter and gather, masked equality, active-set
// extraction), while internal/machine owns the operations and the cost
// accounting over it.
package colstore

// File is a columnar register file: Val[i] is PE i's register value and
// Occ[i] records whether that register is occupied. The two slices are
// always the same length. Empty registers (Occ[i] == false) may hold an
// arbitrary stale value in Val[i]; all semantic comparisons must be
// masked by Occ (see Equal/EqualFunc).
type File[T any] struct {
	Val []T
	Occ []bool
}

// New returns an empty file of length n.
func New[T any](n int) File[T] {
	return File[T]{Val: make([]T, n), Occ: make([]bool, n)}
}

// Len returns the number of PEs the file spans.
func (f File[T]) Len() int { return len(f.Val) }

// Get returns PE i's value and occupancy.
func (f File[T]) Get(i int) (T, bool) { return f.Val[i], f.Occ[i] }

// Set stores v into PE i's register and marks it occupied.
func (f File[T]) Set(i int, v T) {
	f.Val[i] = v
	f.Occ[i] = true
}

// Clear empties PE i's register. The stale value is zeroed so cleared
// files compare byte-identical to fresh ones.
func (f File[T]) Clear(i int) {
	var zero T
	f.Val[i] = zero
	f.Occ[i] = false
}

// Reset empties every register.
func (f File[T]) Reset() {
	clear(f.Val)
	clear(f.Occ)
}

// CopyFrom copies src's registers into f. The files must have equal
// length.
func (f File[T]) CopyFrom(src File[T]) {
	copy(f.Val, src.Val)
	copy(f.Occ, src.Occ)
}

// Count returns the number of occupied registers.
func (f File[T]) Count() int {
	c := 0
	for _, ok := range f.Occ {
		if ok {
			c++
		}
	}
	return c
}

// First returns the value of the lowest-indexed occupied register and
// whether there is one — how callers read back a whole-machine
// semigroup's result.
func (f File[T]) First() (T, bool) {
	for i, ok := range f.Occ {
		if ok {
			return f.Val[i], true
		}
	}
	var zero T
	return zero, false
}

// Gather returns the occupied values in index order.
func (f File[T]) Gather() []T {
	var out []T
	for i, ok := range f.Occ {
		if ok {
			out = append(out, f.Val[i])
		}
	}
	return out
}

// Scatter places vals one per PE from PE 0 upward — the paper's input
// convention (no PE holds more than one item).
func Scatter[T any](n int, vals []T) File[T] {
	if len(vals) > n {
		panic("colstore: more values than PEs")
	}
	f := New[T](n)
	copy(f.Val, vals)
	for i := range vals {
		f.Occ[i] = true
	}
	return f
}

// Equal reports whether two files are semantically equal: same length,
// same occupancy mask, and equal values wherever occupied. Stale values
// of empty registers are ignored.
func Equal[T comparable](a, b File[T]) bool {
	return EqualFunc(a, b, func(x, y T) bool { return x == y })
}

// EqualFunc is Equal with a caller-supplied value comparison.
func EqualFunc[T any](a, b File[T], eq func(x, y T) bool) bool {
	if len(a.Val) != len(b.Val) {
		return false
	}
	for i, ok := range a.Occ {
		if ok != b.Occ[i] {
			return false
		}
		if ok && !eq(a.Val[i], b.Val[i]) {
			return false
		}
	}
	return true
}

// Active appends the indices of the occupied registers of occ to buf in
// ascending order and returns the extended slice. Pass buf[:0] of a
// recycled slice to keep the extraction allocation-free.
func Active(occ []bool, buf []int32) []int32 {
	for i, ok := range occ {
		if ok {
			buf = append(buf, int32(i))
		}
	}
	return buf
}
