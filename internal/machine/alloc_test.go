package machine

// Allocation-budget tests for the scratch arena: on a warm machine every
// Table-1 primitive must run without touching the heap. These are the
// test-suite counterparts of the pinned benchmarks in bench_perf_test.go
// (the benchmarks measure, these assert), and they are what keeps a
// future edit from quietly reintroducing per-call allocation — an
// AllocsPerRun regression here fails `go test` long before the bench
// gate sees it.
//
// Skipped under the race detector: its instrumentation allocates.

import (
	"testing"

	"dyncg/internal/colstore"
	"dyncg/internal/hypercube"
)

func intMin(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func intLess(a, b int) bool { return a < b }

// warmMachine returns a machine plus a full register file and a
// whole-machine segment mask. Callers warm the arena with one untimed
// run of the op they measure.
func warmMachine(t *testing.T, n int) (*M, colstore.File[int], []bool) {
	t.Helper()
	m := New(hypercube.MustNew(n))
	regs := colstore.New[int](n)
	for i := range regs.Val {
		regs.Set(i, (i*7919)%1024)
	}
	seg := WholeMachine(n)
	return m, regs, seg
}

func TestScanAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates")
	}
	m, regs, seg := warmMachine(t, 1024)
	ScanCols(m, regs, seg, Forward, intMin) // warm the arena
	allocs := testing.AllocsPerRun(10, func() {
		ScanCols(m, regs, seg, Forward, intMin)
	})
	if allocs != 0 {
		t.Errorf("Scan on a warm machine: %v allocs/run, want 0", allocs)
	}
}

func TestSemigroupAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates")
	}
	m, regs, seg := warmMachine(t, 1024)
	SemigroupCols(m, regs, seg, intMin)
	allocs := testing.AllocsPerRun(10, func() {
		SemigroupCols(m, regs, seg, intMin)
	})
	if allocs != 0 {
		t.Errorf("Semigroup on a warm machine: %v allocs/run, want 0", allocs)
	}
}

func TestSortAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates")
	}
	m, regs, _ := warmMachine(t, 1024)
	SortCols(m, regs, intLess)
	allocs := testing.AllocsPerRun(10, func() {
		SortCols(m, regs, intLess)
	})
	if allocs != 0 {
		t.Errorf("Sort on a warm machine: %v allocs/run, want 0", allocs)
	}
}

// TestDataMovementAllocFree covers the remaining Table-1 primitives:
// broadcast, block merge, compaction, routing, and a shift whose result
// file goes back to the arena.
func TestDataMovementAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates")
	}
	const n = 1024
	ident := make([]int, n)
	for i := range ident {
		ident[i] = i
	}
	for _, tc := range []struct {
		name string
		run  func(m *M, regs colstore.File[int], seg []bool)
	}{
		{"Spread", func(m *M, regs colstore.File[int], seg []bool) {
			SpreadCols(m, regs, seg)
		}},
		{"MergeBlocks", func(m *M, regs colstore.File[int], _ []bool) {
			MergeBlocksCols(m, regs, n, intLess)
		}},
		{"Compact", func(m *M, regs colstore.File[int], seg []bool) {
			CompactCols(m, regs, seg)
		}},
		{"Route", func(m *M, regs colstore.File[int], _ []bool) {
			RouteCols(m, regs, ident)
		}},
		{"ShiftWithin", func(m *M, regs colstore.File[int], _ []bool) {
			PutCols(m, ShiftWithinCols(m, regs, n, 1))
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m, regs, seg := warmMachine(t, n)
			tc.run(m, regs, seg) // warm the arena
			allocs := testing.AllocsPerRun(10, func() {
				tc.run(m, regs, seg)
			})
			if allocs != 0 {
				t.Errorf("%s on a warm machine: %v allocs/run, want 0", tc.name, allocs)
			}
		})
	}
}

// TestArenaReuse checks the arena actually recycles: two same-size Gets
// with a Put between them return the same backing array.
func TestArenaReuse(t *testing.T) {
	m := New(hypercube.MustNew(16))
	a := GetScratch[int](m, 100)
	a[0] = 42
	PutScratch(m, a)
	b := GetScratch[int](m, 100)
	if &a[0] != &b[0] {
		t.Error("GetScratch after PutScratch did not reuse the buffer")
	}
	if b[0] != 0 {
		t.Errorf("reused scratch not zeroed: b[0] = %d", b[0])
	}
}

// TestArenaGeneration checks Reset invalidates parked buffers: a buffer
// parked before Reset must not be revived after it.
func TestArenaGeneration(t *testing.T) {
	m := New(hypercube.MustNew(16))
	gen := m.ScratchGeneration()
	a := GetScratch[int](m, 64)
	PutScratch(m, a)
	m.Reset()
	if got := m.ScratchGeneration(); got != gen+1 {
		t.Fatalf("ScratchGeneration after Reset = %d, want %d", got, gen+1)
	}
	b := GetScratch[int](m, 64)
	if len(a) > 0 && len(b) > 0 && &a[:1][0] == &b[0] {
		t.Error("GetScratch revived a buffer parked before Reset")
	}
	// Buffers parked in the new generation recycle again.
	PutScratch(m, b)
	c := GetScratch[int](m, 64)
	if &b[:1][0] != &c[0] {
		t.Error("GetScratch did not reuse a current-generation buffer")
	}
}

// TestArenaSmallerGet checks a parked large buffer serves smaller
// requests (capacity, not length, is matched).
func TestArenaSmallerGet(t *testing.T) {
	m := New(hypercube.MustNew(16))
	a := GetScratch[bool](m, 256)
	PutScratch(m, a)
	b := GetScratch[bool](m, 10)
	if len(b) != 10 || cap(b) < 256 {
		t.Errorf("GetScratch(10) after Put(256): len=%d cap=%d, want len 10 from the parked buffer", len(b), cap(b))
	}
}
