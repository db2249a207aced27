package machine

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"dyncg/internal/colstore"
	"dyncg/internal/hypercube"
	"dyncg/internal/mesh"
)

func machines(n int) map[string]*M {
	return map[string]*M{
		"mesh":      New(mesh.MustNew(meshSize(n), mesh.Proximity)),
		"hypercube": New(hypercube.MustNew(n)),
	}
}

func meshSize(n int) int {
	p := 1
	for p < n {
		p <<= 2
	}
	return p
}

func TestSortRandom(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	for name, m := range machines(64) {
		for trial := 0; trial < 20; trial++ {
			k := r.Intn(m.Size() + 1)
			vals := make([]int, k)
			for i := range vals {
				vals[i] = r.Intn(100)
			}
			regs := colstore.Scatter(m.Size(), vals)
			// Shuffle occupied registers across PEs.
			r.Shuffle(m.Size(), func(i, j int) {
				regs.Val[i], regs.Val[j] = regs.Val[j], regs.Val[i]
				regs.Occ[i], regs.Occ[j] = regs.Occ[j], regs.Occ[i]
			})
			SortCols(m, regs, func(a, b int) bool { return a < b })
			got := regs.Gather()
			want := append([]int{}, vals...)
			sort.Ints(want)
			if len(got) != len(want) {
				t.Fatalf("%s: lost items: %d vs %d", name, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%s trial %d: sort mismatch at %d: %v vs %v",
						name, trial, i, got, want)
				}
			}
			// Occupied registers must be packed at the front.
			for i := 0; i < len(got); i++ {
				if !regs.Occ[i] {
					t.Fatalf("%s: hole at %d", name, i)
				}
			}
		}
	}
}

func TestSortBlocksIndependent(t *testing.T) {
	m := New(hypercube.MustNew(16))
	vals := []int{9, 3, 7, 1, 8, 2, 6, 4, 15, 11, 13, 10, 5, 0, 14, 12}
	regs := colstore.Scatter(16, vals)
	SortBlocksCols(m, regs, 4, func(a, b int) bool { return a < b })
	for blk := 0; blk < 4; blk++ {
		for i := 0; i+1 < 4; i++ {
			if regs.Val[blk*4+i] > regs.Val[blk*4+i+1] {
				t.Fatalf("block %d unsorted: %v", blk, regs.Val[blk*4:blk*4+4])
			}
		}
	}
	// Block contents must be preserved.
	got := map[int]bool{}
	for _, v := range regs.Val[:4] {
		got[v] = true
	}
	for _, w := range vals[:4] {
		if !got[w] {
			t.Fatalf("block 0 lost %d", w)
		}
	}
}

func TestMergeBlocks(t *testing.T) {
	m := New(mesh.MustNew(16, mesh.Proximity))
	// Two sorted halves per block of 8.
	vals := []int{1, 3, 5, 7, 2, 4, 6, 8, 0, 2, 4, 6, 1, 3, 5, 7}
	regs := colstore.Scatter(16, vals)
	MergeBlocksCols(m, regs, 8, func(a, b int) bool { return a < b })
	want := [][]int{{1, 2, 3, 4, 5, 6, 7, 8}, {0, 1, 2, 3, 4, 5, 6, 7}}
	for blk := 0; blk < 2; blk++ {
		for i := 0; i < 8; i++ {
			if regs.Val[blk*8+i] != want[blk][i] {
				t.Fatalf("block %d = %v, want %v", blk,
					regs.Val[blk*8:blk*8+8], want[blk])
			}
		}
	}
}

func TestScanSegmented(t *testing.T) {
	for name, m := range machines(16) {
		regs := colstore.New[int](16)
		for i := range regs.Val {
			regs.Set(i, 1)
		}
		seg := BlockSegments(16, 4)
		ScanCols(m, regs, seg, Forward, func(a, b int) int { return a + b })
		for i, v := range regs.Val {
			want := i%4 + 1
			if v != want {
				t.Fatalf("%s: prefix[%d] = %d, want %d", name, i, v, want)
			}
		}
		// Backward suffix sums.
		for i := range regs.Val {
			regs.Set(i, 1)
		}
		ScanCols(m, regs, seg, Backward, func(a, b int) int { return a + b })
		for i, v := range regs.Val {
			want := 4 - i%4
			if v != want {
				t.Fatalf("%s: suffix[%d] = %d, want %d", name, i, v, want)
			}
		}
	}
}

func TestScanSkipsEmpty(t *testing.T) {
	m := New(hypercube.MustNew(8))
	regs := colstore.New[int](8)
	regs.Set(0, 1)
	regs.Set(2, 2)
	regs.Set(4, 3)
	regs.Set(7, 4)
	ScanCols(m, regs, WholeMachine(8), Forward, func(a, b int) int { return a + b })
	wantVals := []int{1, 1, 3, 3, 6, 6, 6, 10}
	for i, w := range wantVals {
		if v, ok := regs.Get(i); !ok || v != w {
			t.Fatalf("prefix[%d] = (%d, %v), want %d", i, v, ok, w)
		}
	}
}

func TestSemigroupMin(t *testing.T) {
	for name, m := range machines(16) {
		vals := []int{5, 3, 8, 1, 9, 2, 7, 6, 4, 0, 11, 10, 15, 13, 12, 14}
		regs := colstore.Scatter(16, vals)
		seg := BlockSegments(16, 8)
		SemigroupCols(m, regs, seg, func(a, b int) int {
			if a < b {
				return a
			}
			return b
		})
		for i := 0; i < 8; i++ {
			if regs.Val[i] != 1 {
				t.Fatalf("%s: seg0 min at %d = %d", name, i, regs.Val[i])
			}
		}
		for i := 8; i < 16; i++ {
			if regs.Val[i] != 0 {
				t.Fatalf("%s: seg1 min at %d = %d", name, i, regs.Val[i])
			}
		}
	}
}

func TestSpreadBroadcast(t *testing.T) {
	for name, m := range machines(16) {
		regs := colstore.New[string](16)
		regs.Set(5, "a")
		regs.Set(12, "b")
		seg := BlockSegments(16, 8)
		SpreadCols(m, regs, seg)
		for i := 0; i < 8; i++ {
			if regs.Val[i] != "a" {
				t.Fatalf("%s: PE %d = %q, want a", name, i, regs.Val[i])
			}
		}
		for i := 8; i < 16; i++ {
			if regs.Val[i] != "b" {
				t.Fatalf("%s: PE %d = %q, want b", name, i, regs.Val[i])
			}
		}
	}
}

func TestSpreadEmptySegmentStaysEmpty(t *testing.T) {
	m := New(hypercube.MustNew(8))
	regs := colstore.New[int](8)
	regs.Set(1, 7)
	seg := BlockSegments(8, 4)
	SpreadCols(m, regs, seg)
	for i := 4; i < 8; i++ {
		if regs.Occ[i] {
			t.Fatalf("empty segment PE %d became %d", i, regs.Val[i])
		}
	}
}

func TestCompact(t *testing.T) {
	for name, m := range machines(16) {
		regs := colstore.New[int](16)
		for i, v := range map[int]int{2: 10, 5: 20, 7: 30, 9: 40, 14: 50} {
			regs.Set(i, v)
		}
		seg := BlockSegments(16, 8)
		CompactCols(m, regs, seg)
		if regs.Val[0] != 10 || regs.Val[1] != 20 || regs.Val[2] != 30 || regs.Occ[3] {
			t.Fatalf("%s: seg0 = %v %v", name, regs.Val[:8], regs.Occ[:8])
		}
		if regs.Val[8] != 40 || regs.Val[9] != 50 || regs.Occ[10] {
			t.Fatalf("%s: seg1 = %v %v", name, regs.Val[8:], regs.Occ[8:])
		}
	}
}

func TestRoute(t *testing.T) {
	m := New(mesh.MustNew(16, mesh.Proximity))
	regs := colstore.Scatter(16, []int{1, 2, 3})
	dest := make([]int, 16)
	for i := range dest {
		dest[i] = -1
	}
	dest[0], dest[1], dest[2] = 15, 0, 7
	RouteCols(m, regs, dest)
	if regs.Val[15] != 1 || regs.Val[0] != 2 || regs.Val[7] != 3 {
		t.Fatalf("Route result = %v %v", regs.Val, regs.Occ)
	}
	if regs.Occ[1] || regs.Occ[2] {
		t.Fatal("sources not cleared")
	}
}

// TestTable1CostShapes verifies the asymptotic claims of Table 1 by
// measuring simulated time across machine sizes: sort/scan/semigroup are
// Θ(√n) on the mesh; scan/semigroup/merge are Θ(log n) and sort Θ(log² n)
// on the hypercube. Shape is asserted by ratio tests across 4× size
// increases.
func TestTable1CostShapes(t *testing.T) {
	sizes := []int{64, 256, 1024, 4096}
	meshSortT := make([]float64, len(sizes))
	cubeSortT := make([]float64, len(sizes))
	meshScanT := make([]float64, len(sizes))
	cubeScanT := make([]float64, len(sizes))
	r := rand.New(rand.NewSource(31))
	for si, n := range sizes {
		mm := New(mesh.MustNew(n, mesh.Proximity))
		hc := New(hypercube.MustNew(n))
		vals := make([]int, n)
		for i := range vals {
			vals[i] = r.Intn(1 << 20)
		}
		less := func(a, b int) bool { return a < b }
		plus := func(a, b int) int { return a + b }

		regs := colstore.Scatter(n, vals)
		SortCols(mm, regs, less)
		meshSortT[si] = float64(mm.Stats().CommSteps)

		regs = colstore.Scatter(n, vals)
		SortCols(hc, regs, less)
		cubeSortT[si] = float64(hc.Stats().CommSteps)

		mm.Reset()
		regs = colstore.Scatter(n, vals)
		ScanCols(mm, regs, WholeMachine(n), Forward, plus)
		meshScanT[si] = float64(mm.Stats().CommSteps)

		hc.Reset()
		regs = colstore.Scatter(n, vals)
		ScanCols(hc, regs, WholeMachine(n), Forward, plus)
		cubeScanT[si] = float64(hc.Stats().CommSteps)
	}
	// Mesh sort and scan: quadrupling n must roughly double time (√n).
	for i := 1; i < len(sizes); i++ {
		for _, pair := range [][2]float64{
			{meshSortT[i], meshSortT[i-1]},
			{meshScanT[i], meshScanT[i-1]},
		} {
			ratio := pair[0] / pair[1]
			if ratio < 1.5 || ratio > 3.0 {
				t.Errorf("mesh Θ(√n) violated: sizes %d→%d ratio %.2f",
					sizes[i-1], sizes[i], ratio)
			}
		}
	}
	// Hypercube: scan grows like log n (ratio (log 4n)/(log n) < 1.45 here);
	// sort grows like log² n.
	for i := 1; i < len(sizes); i++ {
		l0 := math.Log2(float64(sizes[i-1]))
		l1 := math.Log2(float64(sizes[i]))
		scanRatio := cubeScanT[i] / cubeScanT[i-1]
		if scanRatio > 1.3*(l1/l0) {
			t.Errorf("hypercube scan not Θ(log n): %d→%d ratio %.2f",
				sizes[i-1], sizes[i], scanRatio)
		}
		sortRatio := cubeSortT[i] / cubeSortT[i-1]
		if sortRatio > 1.3*(l1*l1)/(l0*l0) {
			t.Errorf("hypercube sort not Θ(log² n): %d→%d ratio %.2f",
				sizes[i-1], sizes[i], sortRatio)
		}
	}
	// Cross-topology: at n=4096 the mesh must be ≫ slower than the cube.
	if meshSortT[3] < 3*cubeSortT[3] {
		t.Errorf("mesh sort (%v) should exceed hypercube sort (%v) at n=4096",
			meshSortT[3], cubeSortT[3])
	}
}

// TestMeshIndexingAblation: row-major indexing loses the Θ(√n) sort bound
// (DESIGN.md ablation 1).
func TestMeshIndexingAblation(t *testing.T) {
	n := 4096
	cost := map[mesh.Indexing]int64{}
	for _, ix := range []mesh.Indexing{mesh.RowMajor, mesh.ShuffledRowMajor, mesh.Proximity} {
		m := New(mesh.MustNew(n, ix))
		vals := make([]int, n)
		for i := range vals {
			vals[i] = (i * 2654435761) % 1000003
		}
		regs := colstore.Scatter(n, vals)
		SortCols(m, regs, func(a, b int) bool { return a < b })
		got := regs.Gather()
		for i := 1; i < len(got); i++ {
			if got[i-1] > got[i] {
				t.Fatalf("%v: unsorted", ix)
			}
		}
		cost[ix] = m.Stats().CommSteps
	}
	// Row-major pays an extra Θ(log n) factor, which emerges slowly with
	// n; at 4096 PEs it is ≈1.5× over shuffled row-major. Proximity order
	// shares shuffled's Θ(√n) bound with a larger constant (Hilbert
	// blocks have looser bounding boxes than bit-interleaved ones).
	if float64(cost[mesh.RowMajor]) < 1.3*float64(cost[mesh.ShuffledRowMajor]) {
		t.Errorf("row-major (%d) should be noticeably slower than shuffled (%d)",
			cost[mesh.RowMajor], cost[mesh.ShuffledRowMajor])
	}
	if cost[mesh.Proximity] > 3*cost[mesh.ShuffledRowMajor] {
		t.Errorf("proximity (%d) and shuffled (%d) should be within a constant",
			cost[mesh.Proximity], cost[mesh.ShuffledRowMajor])
	}
}

func TestStatsAccounting(t *testing.T) {
	m := New(hypercube.MustNew(8))
	if m.Stats().Time() != 0 {
		t.Fatal("fresh machine has nonzero time")
	}
	regs := colstore.Scatter(8, []int{3, 1, 2})
	SortCols(m, regs, func(a, b int) bool { return a < b })
	st := m.Stats()
	if st.CommSteps <= 0 || st.Rounds <= 0 || st.Messages <= 0 {
		t.Fatalf("stats not accumulated: %v", st)
	}
	m.Reset()
	if m.Stats().Time() != 0 {
		t.Fatal("Reset did not clear stats")
	}
}

func TestScatterPanicsOnOverflow(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	colstore.Scatter(2, []int{1, 2, 3})
}
