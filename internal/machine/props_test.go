package machine

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"dyncg/internal/colstore"
	"dyncg/internal/hypercube"
	"dyncg/internal/mesh"
)

// Property: Sort produces a permutation of its input, in order, on both
// topologies, for any input size ≤ machine and any values.
func TestSortPermutationProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 64
		k := r.Intn(n + 1)
		vals := make([]int, k)
		for i := range vals {
			vals[i] = r.Intn(32) // duplicates likely
		}
		for _, topo := range []Topology{
			mesh.MustNew(n, mesh.Proximity), hypercube.MustNew(n),
		} {
			m := New(topo)
			regs := colstore.Scatter(n, vals)
			r.Shuffle(n, func(i, j int) {
				regs.Val[i], regs.Val[j] = regs.Val[j], regs.Val[i]
				regs.Occ[i], regs.Occ[j] = regs.Occ[j], regs.Occ[i]
			})
			SortCols(m, regs, func(a, b int) bool { return a < b })
			got := regs.Gather()
			want := append([]int{}, vals...)
			sort.Ints(want)
			if len(got) != len(want) {
				return false
			}
			for i := range got {
				if got[i] != want[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: segmented Scan equals the serial per-segment prefix for any
// segment layout and occupancy pattern.
func TestScanMatchesSerialProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 64
		regs := colstore.New[int](n)
		seg := make([]bool, n)
		seg[0] = true
		for i := range regs.Val {
			if r.Intn(3) > 0 {
				regs.Set(i, r.Intn(100))
			}
			if i > 0 && r.Intn(5) == 0 {
				seg[i] = true
			}
		}
		// Serial oracle.
		want := colstore.New[int](n)
		acc, accOk := 0, false
		for i := 0; i < n; i++ {
			if seg[i] {
				acc, accOk = 0, false
			}
			if regs.Occ[i] {
				if accOk {
					acc += regs.Val[i]
				} else {
					acc, accOk = regs.Val[i], true
				}
				want.Set(i, acc)
			} else if accOk {
				want.Set(i, acc)
			}
		}
		m := New(hypercube.MustNew(n))
		got := colstore.New[int](n)
		got.CopyFrom(regs)
		ScanCols(m, got, seg, Forward, func(a, b int) int { return a + b })
		for i, ok := range regs.Occ {
			// Occupied positions must match the oracle exactly; empty
			// positions may or may not have been filled by the scan's
			// identity-skipping, so only compare where input was occupied.
			if ok && (got.Val[i] != want.Val[i] || !got.Occ[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: Compact preserves the relative order and multiset of
// occupied values within every segment.
func TestCompactOrderProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 64
		block := []int{8, 16, 32, 64}[r.Intn(4)]
		regs := colstore.New[int](n)
		var wantPerSeg [][]int
		for s := 0; s < n; s += block {
			var w []int
			for i := s; i < s+block; i++ {
				if r.Intn(2) == 0 {
					v := r.Intn(1000)
					regs.Set(i, v)
					w = append(w, v)
				}
			}
			wantPerSeg = append(wantPerSeg, w)
		}
		m := New(mesh.MustNew(64, mesh.Proximity))
		CompactCols(m, regs, BlockSegments(n, block))
		for si, w := range wantPerSeg {
			base := si * block
			for i, v := range w {
				if !regs.Occ[base+i] || regs.Val[base+i] != v {
					return false
				}
			}
			for i := len(w); i < block; i++ {
				if regs.Occ[base+i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}
