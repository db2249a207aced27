package machine

// Differential battery for the sparse active-set primitives: every
// sparse operation must produce the same registers (under masked
// comparison — occupancy plus values where occupied) AND charge the
// same Stats and observer round/span stream as its dense counterpart on
// the same occupancy pattern, across random masks, both bundled
// topologies, and machine sizes including non-trivial active fractions.
// FuzzActiveSetRounds extends the same identity to fuzzer-chosen
// occupancy masks and operation sequences.

import (
	"math/rand"
	"reflect"
	"testing"

	"dyncg/internal/colstore"
	"dyncg/internal/hypercube"
	"dyncg/internal/mesh"
)

// streamRec records the observer event stream for charge-order identity.
type streamRec struct {
	events []string
	rounds []RoundInfo
}

func (r *streamRec) SpanBegin(name string, kv []string) {
	ev := "begin:" + name
	for _, s := range kv {
		ev += ":" + s
	}
	r.events = append(r.events, ev)
}
func (r *streamRec) SpanEnd() { r.events = append(r.events, "end") }
func (r *streamRec) Round(ri RoundInfo) {
	r.events = append(r.events, "round")
	r.rounds = append(r.rounds, ri)
}

// maskRegs builds the dense and sparse views of the same occupancy mask,
// with value i*3+1 at each occupied PE i.
func maskRegs(n int, occ []bool) (colstore.File[int], *Sparse[int]) {
	regs := colstore.New[int](n)
	s := NewSparse[int](n)
	for i := 0; i < n; i++ {
		if occ[i] {
			regs.Set(i, i*3+1)
			s.Set(i, i*3+1)
		}
	}
	return regs, s
}

// checkSparseInvariant verifies the active list matches the occupancy
// mask and stays sorted.
func checkSparseInvariant(t *testing.T, s *Sparse[int]) {
	t.Helper()
	want := colstore.Active(s.File().Occ, nil)
	if !reflect.DeepEqual(append([]int32{}, s.Active()...), append([]int32{}, want...)) {
		t.Fatalf("active list %v does not match occupancy %v", s.Active(), want)
	}
}

// requireSparseMatch asserts masked register identity, Stats identity,
// and observer stream identity between a dense run and a sparse run.
func requireSparseMatch(t *testing.T, op string, denseRegs colstore.File[int], denseStats Stats, denseObs *streamRec, s *Sparse[int], sparseStats Stats, sparseObs *streamRec) {
	t.Helper()
	if !colstore.Equal(denseRegs, s.File()) {
		t.Fatalf("%s: sparse registers diverge from dense\ndense: %v %v\nsparse: %v %v",
			op, denseRegs.Val, denseRegs.Occ, s.File().Val, s.File().Occ)
	}
	checkSparseInvariant(t, s)
	if denseStats != sparseStats {
		t.Fatalf("%s: sparse stats %+v != dense stats %+v — the sparse primitive must charge the dense cost model", op, sparseStats, denseStats)
	}
	if !reflect.DeepEqual(denseObs.events, sparseObs.events) {
		t.Fatalf("%s: observer event streams diverge\ndense:  %v\nsparse: %v", op, denseObs.events, sparseObs.events)
	}
	if !reflect.DeepEqual(denseObs.rounds, sparseObs.rounds) {
		t.Fatalf("%s: round streams diverge\ndense:  %+v\nsparse: %+v", op, denseObs.rounds, sparseObs.rounds)
	}
}

func addOp(a, b int) int { return a + b }
func minOp(a, b int) int {
	if b < a {
		return b
	}
	return a
}

// sparseOps enumerates the primitive pairs under test. Each entry runs
// the dense primitive on regs and the sparse primitive on s.
var sparseOps = []struct {
	name   string
	dense  func(m *M, regs colstore.File[int], seg []bool)
	sparse func(m *M, s *Sparse[int])
}{
	{"scan-fwd-add",
		func(m *M, regs colstore.File[int], seg []bool) { ScanCols(m, regs, seg, Forward, addOp) },
		func(m *M, s *Sparse[int]) { SparseScan(m, s, Forward, addOp) }},
	{"scan-bwd-add",
		func(m *M, regs colstore.File[int], seg []bool) { ScanCols(m, regs, seg, Backward, addOp) },
		func(m *M, s *Sparse[int]) { SparseScan(m, s, Backward, addOp) }},
	{"scan-fwd-flood",
		func(m *M, regs colstore.File[int], seg []bool) { ScanCols(m, regs, seg, Forward, nil) },
		func(m *M, s *Sparse[int]) { SparseScan(m, s, Forward, nil) }},
	{"scan-bwd-flood",
		func(m *M, regs colstore.File[int], seg []bool) { ScanCols(m, regs, seg, Backward, nil) },
		func(m *M, s *Sparse[int]) { SparseScan(m, s, Backward, nil) }},
	{"spread",
		func(m *M, regs colstore.File[int], seg []bool) { SpreadCols(m, regs, seg) },
		func(m *M, s *Sparse[int]) { SparseSpread(m, s) }},
	{"semigroup-min",
		func(m *M, regs colstore.File[int], seg []bool) { SemigroupCols(m, regs, seg, minOp) },
		func(m *M, s *Sparse[int]) { SparseSemigroup(m, s, minOp) }},
	{"sort",
		func(m *M, regs colstore.File[int], seg []bool) {
			SortCols(m, regs, func(a, b int) bool { return a%7 < b%7 }) // ties exercise the unstable network
		},
		func(m *M, s *Sparse[int]) {
			SparseSort(m, s, func(a, b int) bool { return a%7 < b%7 })
		}},
	{"compact",
		func(m *M, regs colstore.File[int], seg []bool) { CompactCols(m, regs, seg) },
		func(m *M, s *Sparse[int]) { SparseCompact(m, s) }},
	{"shift+3",
		func(m *M, regs colstore.File[int], seg []bool) {
			out := ShiftWithinCols(m, regs, regs.Len(), 3)
			regs.CopyFrom(out)
			PutCols(m, out)
		},
		func(m *M, s *Sparse[int]) { SparseShiftWithin(m, s, s.Len(), 3) }},
	{"shift-block-neg",
		func(m *M, regs colstore.File[int], seg []bool) {
			block := regs.Len() / 2
			if block < 1 {
				block = 1
			}
			out := ShiftWithinCols(m, regs, block, -2)
			regs.CopyFrom(out)
			PutCols(m, out)
		},
		func(m *M, s *Sparse[int]) {
			block := s.Len() / 2
			if block < 1 {
				block = 1
			}
			SparseShiftWithin(m, s, block, -2)
		}},
	{"route-reverse",
		func(m *M, regs colstore.File[int], seg []bool) {
			n := regs.Len()
			dest := make([]int, n)
			for i := range dest {
				if i%5 == 4 {
					dest[i] = -1 // dropped
				} else {
					dest[i] = n - 1 - i
				}
			}
			RouteCols(m, regs, dest)
		},
		func(m *M, s *Sparse[int]) {
			n := s.Len()
			dest := make([]int, n)
			for i := range dest {
				if i%5 == 4 {
					dest[i] = -1
				} else {
					dest[i] = n - 1 - i
				}
			}
			SparseRoute(m, s, dest)
		}},
}

// runSparseCase runs one (op, topology, mask) cell dense and sparse on
// fresh machines and asserts full identity.
func runSparseCase(t *testing.T, opIdx int, newM func() *M, occ []bool) {
	t.Helper()
	n := len(occ)
	op := sparseOps[opIdx]

	dm := newM()
	denseObs := &streamRec{}
	dm.SetObserver(denseObs)
	regs, _ := maskRegs(n, occ)
	op.dense(dm, regs, WholeMachine(n))

	sm := newM()
	sparseObs := &streamRec{}
	sm.SetObserver(sparseObs)
	_, s := maskRegs(n, occ)
	op.sparse(sm, s)

	requireSparseMatch(t, op.name, regs, dm.Stats(), denseObs, s, sm.Stats(), sparseObs)
}

// TestSparseDenseIdentity is the property battery: for random occupancy
// masks at several densities, every sparse primitive matches its dense
// counterpart in registers, Stats, and the observed round stream, on
// both machine families.
func TestSparseDenseIdentity(t *testing.T) {
	r := rand.New(rand.NewSource(88))
	for _, n := range []int{1, 4, 16, 64, 256} {
		topos := map[string]func() *M{
			"mesh":      func() *M { return New(mesh.MustNew(meshSize(n), mesh.Proximity)) },
			"hypercube": func() *M { return New(hypercube.MustNew(n)) },
		}
		for topoName, newM := range topos {
			mn := newM().Size()
			for _, density := range []float64{0, 0.03, 0.2, 0.7, 1} {
				occ := make([]bool, mn)
				for i := range occ {
					if r.Float64() < density {
						occ[i] = true
					}
				}
				for opIdx := range sparseOps {
					opIdx := opIdx
					t.Run(sparseOps[opIdx].name+"/"+topoName, func(t *testing.T) {
						runSparseCase(t, opIdx, newM, occ)
					})
				}
			}
		}
	}
}

// TestPairCountBruteForce pins the closed-form compare-exchange pair
// count (the occupancy-independent message count of a dense CE round)
// against direct enumeration, including non-power-of-two machine sizes.
func TestPairCountBruteForce(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 5, 8, 13, 16, 31, 32, 100, 256} {
		for _, mask := range []int{1, 2, 3, 4, 7, 8, 15, 16, 31, 63, 255} {
			want := 0
			for i := 0; i < n; i++ {
				j := i ^ mask
				if j > i && j < n {
					want++
				}
			}
			if got := pairCount(n, mask); got != want {
				t.Errorf("pairCount(%d, %d) = %d, want %d", n, mask, got, want)
			}
		}
	}
}

// TestSparseSetClear covers the maintenance surface of the active list.
func TestSparseSetClear(t *testing.T) {
	s := NewSparse[int](8)
	s.Set(5, 50)
	s.Set(2, 20)
	s.Set(5, 55) // overwrite keeps one entry
	if got := s.Active(); !reflect.DeepEqual(got, []int32{2, 5}) {
		t.Fatalf("Active = %v", got)
	}
	if v, ok := s.Get(5); !ok || v != 55 {
		t.Fatalf("Get(5) = %v, %v", v, ok)
	}
	s.Clear(2)
	s.Clear(2) // double clear is a no-op
	if got := s.Active(); !reflect.DeepEqual(got, []int32{5}) {
		t.Fatalf("Active after Clear = %v", got)
	}
	if got := s.Gather(); !reflect.DeepEqual(got, []int{55}) {
		t.Fatalf("Gather = %v", got)
	}
	if s.Count() != 1 || s.Len() != 8 {
		t.Fatalf("Count/Len = %d/%d", s.Count(), s.Len())
	}
	sc := SparseScatter(4, []int{9, 8})
	if got := sc.Gather(); !reflect.DeepEqual(got, []int{9, 8}) {
		t.Fatalf("SparseScatter Gather = %v", got)
	}
}

// TestSparseRouteCollisionPanics mirrors the dense Route contract.
func TestSparseRouteCollisionPanics(t *testing.T) {
	m := New(hypercube.MustNew(4))
	s := SparseScatter(4, []int{1, 2})
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on destination collision")
		}
	}()
	SparseRoute(m, s, []int{3, 3, -1, -1})
}

// FuzzActiveSetRounds drives dense/sparse identity from fuzzer-chosen
// occupancy masks: the mask bytes choose which PEs hold items, opSel
// picks the primitive, and nSel the machine size. Any divergence in
// masked registers, Stats, or the observer stream is a bug in the
// sparse layer (or a cost-model drift in the dense one).
func FuzzActiveSetRounds(f *testing.F) {
	f.Add(uint8(0), uint8(0), []byte{0x0f})
	f.Add(uint8(1), uint8(3), []byte{0xaa, 0x55})
	f.Add(uint8(2), uint8(6), []byte{0x01, 0x00, 0x80})
	f.Add(uint8(3), uint8(7), []byte{0xff, 0xff, 0xff, 0xff})
	f.Add(uint8(2), uint8(9), []byte{})
	f.Add(uint8(1), uint8(10), []byte{0x10})
	f.Fuzz(func(t *testing.T, nSel, opSel uint8, mask []byte) {
		n := 1 << (int(nSel)%5 + 2) // 4..64
		opIdx := int(opSel) % len(sparseOps)
		occ := make([]bool, n)
		for i := range occ {
			if len(mask) > 0 && mask[(i/8)%len(mask)]&(1<<(i%8)) != 0 {
				occ[i] = true
			}
		}
		runSparseCase(t, opIdx, func() *M { return New(hypercube.MustNew(n)) }, occ)
		runSparseCase(t, opIdx, func() *M { return New(mesh.MustNew(meshSize(n), mesh.Proximity)) },
			append(make([]bool, 0, meshSize(n)), append(occ, make([]bool, meshSize(n)-n)...)...))
	})
}
