package server

import (
	"testing"

	"dyncg/internal/colstore"
	"dyncg/internal/machine"
	"dyncg/internal/topo"
	"dyncg/internal/trace"
)

func newMachine(t testing.TB, pes int) *machine.M {
	t.Helper()
	m, err := topo.NewMachine(topo.Hypercube, pes)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestPoolHitReturnsSameMachine(t *testing.T) {
	p := NewPool(4)
	key := Key{Topo: "hypercube", PEs: 64, Workers: 1}
	if got := p.Get(key); got != nil {
		t.Fatalf("Get on an empty pool = %v, want nil", got)
	}
	m := newMachine(t, 64)
	p.Put(key, m)
	if got := p.Get(key); got != m {
		t.Fatalf("Get after Put = %p, want the checked-in machine %p", got, m)
	}
	st := p.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Idle != 0 {
		t.Errorf("stats = %+v, want 1 hit, 1 miss, 0 idle", st)
	}
}

func TestPoolClassesAreDisjoint(t *testing.T) {
	p := NewPool(4)
	k64 := Key{Topo: "hypercube", PEs: 64, Workers: 1}
	k128 := Key{Topo: "hypercube", PEs: 128, Workers: 1}
	p.Put(k64, newMachine(t, 64))
	if got := p.Get(k128); got != nil {
		t.Fatalf("Get(%v) returned a machine from class %v", k128, k64)
	}
	if m := p.Get(k64); m == nil || m.Size() != 64 {
		t.Fatalf("Get(%v) = %v, want the 64-PE machine", k64, m)
	}
}

func TestPoolMRUCheckout(t *testing.T) {
	p := NewPool(4)
	key := Key{Topo: "hypercube", PEs: 64, Workers: 1}
	first, second := newMachine(t, 64), newMachine(t, 64)
	p.Put(key, first)
	p.Put(key, second)
	if got := p.Get(key); got != second {
		t.Errorf("Get = %p, want the most recently checked-in machine %p", got, second)
	}
}

func TestPoolLRUEvictionAcrossClasses(t *testing.T) {
	p := NewPool(2)
	oldKey := Key{Topo: "hypercube", PEs: 64, Workers: 1}
	midKey := Key{Topo: "hypercube", PEs: 128, Workers: 1}
	newKey := Key{Topo: "hypercube", PEs: 256, Workers: 1}
	p.Put(oldKey, newMachine(t, 64))
	p.Put(midKey, newMachine(t, 128))
	p.Put(newKey, newMachine(t, 256)) // over capacity: evicts the 64-PE class
	if got := p.IdleIn(oldKey); got != 0 {
		t.Errorf("oldest class has %d idle machines after eviction, want 0", got)
	}
	if p.IdleIn(midKey) != 1 || p.IdleIn(newKey) != 1 {
		t.Errorf("younger classes evicted: mid=%d new=%d, want 1 and 1",
			p.IdleIn(midKey), p.IdleIn(newKey))
	}
	st := p.Stats()
	if st.Evictions != 1 || st.Idle != 2 {
		t.Errorf("stats = %+v, want 1 eviction, 2 idle", st)
	}
}

func TestPoolCheckoutKeepsArenaWarm(t *testing.T) {
	p := NewPool(4)
	key := Key{Topo: "hypercube", PEs: 64, Workers: 1}
	m := newMachine(t, 64)
	regs := colstore.New[int](m.Size())
	for i := range regs.Val {
		regs.Set(i, i)
	}
	machine.SemigroupCols(m, regs, machine.WholeMachine(m.Size()), intMin) // park scratch
	gen := m.ScratchGeneration()
	p.Put(key, m)
	got := p.Get(key)
	if got != m {
		t.Fatal("pool returned a different machine")
	}
	if got.ScratchGeneration() != gen {
		t.Errorf("checkout bumped the scratch generation %d → %d; parked buffers lost",
			gen, got.ScratchGeneration())
	}
	if st := got.Stats(); st != (machine.Stats{}) {
		t.Errorf("checkout did not zero the counters: %v", st)
	}
}

func TestPoolPutDetachesRequestState(t *testing.T) {
	p := NewPool(4)
	key := Key{Topo: "hypercube", PEs: 64, Workers: 1}
	m := newMachine(t, 64)
	trace.Attach(m, "leftover")
	p.Put(key, m)
	if got := p.Get(key); got.Observed() {
		t.Error("checked-out machine still carries the previous request's observer")
	}
}

// TestPoolPEBudgetEvictsLRU: the PE-retention budget evicts
// least-recently-used machines until the total idle PE count fits,
// independently of the machine-count cap.
func TestPoolPEBudgetEvictsLRU(t *testing.T) {
	p := NewPoolPEs(32, 256)
	k64 := Key{Topo: "hypercube", PEs: 64, Workers: 1}
	k128 := Key{Topo: "hypercube", PEs: 128, Workers: 1}
	p.Put(k64, newMachine(t, 64))
	p.Put(k128, newMachine(t, 128))
	p.Put(k128, newMachine(t, 128)) // 320 PEs total: evicts the oldest (64-PE)
	if got := p.Get(k64); got != nil {
		t.Errorf("64-PE machine still pooled after PE budget exceeded")
	}
	st := p.Stats()
	if st.Evictions != 1 || st.IdlePEs != 256 {
		t.Errorf("stats = %+v, want 1 eviction and 256 idle PEs", st)
	}
}

// TestPoolPEBudgetDropsOversizedMachine: a machine bigger than the whole
// budget is not retained at all — one giant checkout must not pin the
// memory of an entire warm fleet.
func TestPoolPEBudgetDropsOversizedMachine(t *testing.T) {
	p := NewPoolPEs(32, 100)
	key := Key{Topo: "hypercube", PEs: 128, Workers: 1}
	p.Put(key, newMachine(t, 128))
	if st := p.Stats(); st.Idle != 0 || st.IdlePEs != 0 {
		t.Errorf("stats = %+v, want nothing retained", st)
	}
}

// TestPoolPEBudgetAccounting: checkouts and Flush release budget.
func TestPoolPEBudgetAccounting(t *testing.T) {
	p := NewPoolPEs(32, 1024)
	key := Key{Topo: "hypercube", PEs: 256, Workers: 1}
	p.Put(key, newMachine(t, 256))
	p.Put(key, newMachine(t, 256))
	if st := p.Stats(); st.IdlePEs != 512 {
		t.Fatalf("IdlePEs = %d, want 512", st.IdlePEs)
	}
	m := p.Get(key)
	if st := p.Stats(); st.IdlePEs != 256 {
		t.Errorf("IdlePEs after checkout = %d, want 256", st.IdlePEs)
	}
	p.Put(key, m)
	p.Flush()
	if st := p.Stats(); st.IdlePEs != 0 {
		t.Errorf("IdlePEs after flush = %d, want 0", st.IdlePEs)
	}
}

func TestPoolDisabledRetainsNothing(t *testing.T) {
	p := NewPool(-1)
	key := Key{Topo: "hypercube", PEs: 64, Workers: 1}
	p.Put(key, newMachine(t, 64))
	if got := p.Get(key); got != nil {
		t.Errorf("disabled pool returned %v, want nil", got)
	}
}

func intMin(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func intLess(a, b int) bool { return a < b }

// TestPoolCycleAllocFree pins the pool's own hot path: a checkout +
// WarmReset + check-in cycle on a warm size class touches no heap.
func TestPoolCycleAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates")
	}
	p := NewPool(4)
	key := Key{Topo: "hypercube", PEs: 64, Workers: 1}
	p.Put(key, newMachine(t, 64))
	allocs := testing.AllocsPerRun(10, func() {
		p.Put(key, p.Get(key))
	})
	if allocs != 0 {
		t.Errorf("pool Get+Put cycle: %v allocs/run, want 0", allocs)
	}
}

// TestWarmCheckoutRunAllocFree is the acceptance budget of the serving
// design: checking a pre-warmed machine out of its size class, running a
// Table-1 primitive, and checking it back in performs zero machine or
// scratch allocations — the WarmReset keeps the arena generation, so the
// primitive reuses the buffers parked by the previous request.
func TestWarmCheckoutRunAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates")
	}
	p := NewPool(4)
	const pes = 1024
	key := Key{Topo: "hypercube", PEs: pes, Workers: 1}
	m := newMachine(t, pes)
	regs := colstore.New[int](pes)
	for i := range regs.Val {
		regs.Set(i, (i*7919)%1024)
	}
	seg := machine.WholeMachine(pes)
	machine.SemigroupCols(m, regs, seg, intMin) // warm the arena
	machine.SortCols(m, regs, intLess)
	p.Put(key, m)
	allocs := testing.AllocsPerRun(10, func() {
		mm := p.Get(key)
		machine.SemigroupCols(mm, regs, seg, intMin)
		machine.SortCols(mm, regs, intLess)
		p.Put(key, mm)
	})
	if allocs != 0 {
		t.Errorf("warm checkout + primitives + checkin: %v allocs/run, want 0", allocs)
	}
}
