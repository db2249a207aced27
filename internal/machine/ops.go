package machine

// This file holds the shared vocabulary of the fundamental data movement
// operations of §2.6 (Table 1), whose implementations live in
// colops.go. A register file is
// a colstore.File with one register per PE; its Occ column distinguishes
// PEs that hold a data item from empty PEs (the paper allows strings
// with fewer items than PEs). Segments ("strings of processors",
// §2.2/§2.3) are described by a boolean segment-start mask; all
// segmented operations run in every string simultaneously, as the paper
// requires.
//
// Allocation discipline: every primitive draws its O(n) scratch from the
// machine's arena (arena.go) and releases it before returning. A warm
// machine runs every dense primitive without touching the heap at all
// (asserted by alloc_test.go, measured by bench_perf_test.go).

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
