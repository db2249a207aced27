package machine

import (
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"

	"dyncg/internal/colstore"
	"dyncg/internal/hypercube"
	"dyncg/internal/mesh"
)

func TestStatsSub(t *testing.T) {
	a := Stats{CommSteps: 10, LocalSteps: 4, Rounds: 3, Messages: 100}
	b := Stats{CommSteps: 7, LocalSteps: 1, Rounds: 2, Messages: 40}
	got := a.Sub(b)
	want := Stats{CommSteps: 3, LocalSteps: 3, Rounds: 1, Messages: 60}
	if got != want {
		t.Errorf("Sub: got %+v, want %+v", got, want)
	}
	if z := a.Sub(a); z != (Stats{}) {
		t.Errorf("a.Sub(a) = %+v, want zero", z)
	}
	if got := a.Sub(Stats{}); got != a {
		t.Errorf("a.Sub(zero) = %+v, want %+v", got, a)
	}
	if got.Time() != 6 {
		t.Errorf("delta Time() = %d, want 6", got.Time())
	}
}

func TestStatsAdd(t *testing.T) {
	a := Stats{CommSteps: 3, LocalSteps: 3, Rounds: 1, Messages: 60}
	b := Stats{CommSteps: 7, LocalSteps: 1, Rounds: 2, Messages: 40}
	want := Stats{CommSteps: 10, LocalSteps: 4, Rounds: 3, Messages: 100}
	if got := a.Add(b); got != want {
		t.Errorf("Add: got %+v, want %+v", got, want)
	}
	// Add and Sub are inverses.
	if got := a.Add(b).Sub(b); got != a {
		t.Errorf("(a+b)−b = %+v, want %+v", got, a)
	}
}

// TestTopologySharedAcrossMachines documents the concurrency contract: a
// Topology is immutable after construction and may back any number of M
// instances concurrently, as long as each M stays on one goroutine. Run
// under -race (scripts/check.sh does) this fails if a topology method
// ever mutates shared state.
func TestTopologySharedAcrossMachines(t *testing.T) {
	const goroutines = 8
	for _, topo := range []Topology{
		mesh.MustNew(64, mesh.Proximity), hypercube.MustNew(64),
	} {
		var wg sync.WaitGroup
		results := make([]Stats, goroutines)
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				r := rand.New(rand.NewSource(int64(g)))
				m := New(topo) // one M per goroutine; the topology is shared
				vals := make([]int, m.Size())
				for i := range vals {
					vals[i] = r.Intn(1000)
				}
				regs := colstore.Scatter(m.Size(), vals)
				SortCols(m, regs, func(a, b int) bool { return a < b })
				got := regs.Gather()
				if !sort.IntsAreSorted(got) {
					t.Errorf("goroutine %d: sort produced unsorted output", g)
				}
				results[g] = m.Stats()
			}(g)
		}
		wg.Wait()
		// Bitonic sort cost is data-independent: every goroutine must have
		// been charged the same simulated time.
		for g := 1; g < goroutines; g++ {
			if results[g] != results[0] {
				t.Errorf("%s: goroutine %d stats %+v != goroutine 0 stats %+v",
					topo.Name(), g, results[g], results[0])
			}
		}
	}
}

// TestSinglePEMachine exercises every primitive on an n=1 machine: all
// data movement degenerates to local work and nothing may panic or
// charge communication.
func TestSinglePEMachine(t *testing.T) {
	for _, topo := range []Topology{
		mesh.MustNew(1, mesh.Proximity), hypercube.MustNew(1),
	} {
		m := New(topo)
		regs := colstore.Scatter(1, []int{42})
		SortCols(m, regs, func(a, b int) bool { return a < b })
		ScanCols(m, regs, WholeMachine(1), Forward, func(a, b int) int { return a + b })
		SpreadCols(m, regs, WholeMachine(1))
		SemigroupCols(m, regs, WholeMachine(1), func(a, b int) int { return a + b })
		MergeBlocksCols(m, regs, 1, func(a, b int) bool { return a < b })
		if got := regs.Gather(); len(got) != 1 || got[0] != 42 {
			t.Errorf("%s: n=1 primitives corrupted the register: %v", topo.Name(), got)
		}
		if st := m.Stats(); st.CommSteps != 0 {
			t.Errorf("%s: n=1 machine charged %d comm steps", topo.Name(), st.CommSteps)
		}
	}
}

func TestNonPowerSizesRejected(t *testing.T) {
	for _, n := range []int{-4, 0, 2, 3, 8, 15, 48} {
		if _, err := mesh.New(n, mesh.Proximity); err == nil {
			t.Errorf("mesh.New(%d) succeeded, want non-power-of-4 error", n)
		}
	}
	for _, n := range []int{-2, 0, 3, 6, 12, 100} {
		if _, err := hypercube.New(n); err == nil {
			t.Errorf("hypercube.New(%d) succeeded, want non-power-of-2 error", n)
		}
	}
	// The boundary cases that must succeed.
	if _, err := mesh.New(1, mesh.Proximity); err != nil {
		t.Errorf("mesh.New(1): %v", err)
	}
	if _, err := hypercube.New(1); err != nil {
		t.Errorf("hypercube.New(1): %v", err)
	}
}

// TestResetPreservesCostCaches is white-box: Reset clears the counters
// but keeps the round-cost table, so a re-run of the same operation is
// charged identically (and the table need not be refilled).
func TestResetPreservesCostCaches(t *testing.T) {
	for _, topo := range []Topology{
		mesh.MustNew(64, mesh.Proximity), hypercube.MustNew(64),
	} {
		m := New(topo)
		run := func() Stats {
			regs := colstore.Scatter(m.Size(), make([]int, m.Size()))
			SortCols(m, regs, func(a, b int) bool { return a < b })
			ScanCols(m, regs, WholeMachine(m.Size()), Forward, func(a, b int) int { return a + b })
			return m.Stats()
		}
		first := run()
		for b := range m.xor {
			if m.xor[b] < 0 || m.shift[b] < 0 {
				t.Fatalf("%s: sort+scan left the table at %v/%v, want every entry filled",
					topo.Name(), m.xor, m.shift)
			}
		}
		xor, shift := slices.Clone(m.xor), slices.Clone(m.shift)
		m.Reset()
		if m.Stats() != (Stats{}) {
			t.Fatalf("%s: Reset left stats %+v", topo.Name(), m.Stats())
		}
		if !slices.Equal(m.xor, xor) || !slices.Equal(m.shift, shift) {
			t.Errorf("%s: Reset changed the round-cost table (%v/%v → %v/%v)", topo.Name(),
				xor, shift, m.xor, m.shift)
		}
		if second := run(); second != first {
			t.Errorf("%s: re-run after Reset charged %+v, first run %+v",
				topo.Name(), second, first)
		}
	}
}
