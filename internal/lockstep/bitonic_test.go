package lockstep_test

import (
	"math/rand"
	"sort"
	"testing"

	"dyncg/internal/colstore"
	"dyncg/internal/hypercube"
	"dyncg/internal/lockstep"
	"dyncg/internal/machine"
)

// TestBitonicSortHypercube cross-validates the goroutine hypercube
// against the vector simulator: same sorted output as machine.SortCols on the
// same values, and the same q(q+1)/2 compare-exchange round count that
// the simulator charges in Stats.Rounds.
func TestBitonicSortHypercube(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for _, dim := range []int{1, 2, 3, 4, 6} {
		n := 1 << dim
		vals := make([]int, n)
		for i := range vals {
			vals[i] = r.Intn(1000) - 500
		}

		got, rounds, err := lockstep.BitonicSortHypercube(dim, vals)
		if err != nil {
			t.Fatalf("dim=%d: %v", dim, err)
		}
		want := append([]int{}, vals...)
		sort.Ints(want)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("dim=%d: sorted[%d] = %d, want %d (full: %v)", dim, i, got[i], want[i], got)
			}
		}
		if wantRounds := dim * (dim + 1) / 2; rounds != wantRounds {
			t.Errorf("dim=%d: %d compare-exchange rounds, want q(q+1)/2 = %d", dim, rounds, wantRounds)
		}

		// The simulator's bitonic sort on the same hypercube: identical
		// output in PE order and an identical communication round count.
		m := machine.New(hypercube.MustNew(n))
		regs := colstore.Scatter(n, vals)
		machine.SortCols(m, regs, func(a, b int) bool { return a < b })
		for i, ok := range regs.Occ {
			if !ok || regs.Val[i] != got[i] {
				t.Fatalf("dim=%d: simulator PE %d holds (%d, %v), lockstep holds %d",
					dim, i, regs.Val[i], ok, got[i])
			}
		}
		if simRounds := m.Stats().Rounds; simRounds != int64(rounds) {
			t.Errorf("dim=%d: simulator charged %d rounds, lockstep performed %d",
				dim, simRounds, rounds)
		}
	}
}

// TestBitonicSortHypercubeDuplicates exercises ties and constant input.
func TestBitonicSortHypercubeDuplicates(t *testing.T) {
	vals := []int{3, 1, 3, 1, 2, 2, 3, 3}
	got, _, err := lockstep.BitonicSortHypercube(3, vals)
	if err != nil {
		t.Fatal(err)
	}
	want := append([]int{}, vals...)
	sort.Ints(want)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sorted[%d] = %d, want %d", i, got[i], want[i])
		}
	}
	if got, _, err := lockstepConst(4); err != nil || !allEqual(got, 9) {
		t.Fatalf("constant input perturbed: %v (err %v)", got, err)
	}
}

func lockstepConst(dim int) ([]int, int, error) {
	vals := make([]int, 1<<dim)
	for i := range vals {
		vals[i] = 9
	}
	return lockstep.BitonicSortHypercube(dim, vals)
}

func allEqual(xs []int, v int) bool {
	for _, x := range xs {
		if x != v {
			return false
		}
	}
	return true
}

// TestNewHypercubeGrayRejectsNonEdges proves the runtime enforces real
// hypercube links: a program that sends between two PEs whose nodes
// differ in more than one bit must be rejected.
func TestNewHypercubeGrayRejectsNonEdges(t *testing.T) {
	r := lockstep.NewHypercubeGray(3, nil)
	err := r.Run(1, func(pe *lockstep.PE) map[int]lockstep.Msg {
		if pe.ID != 0 {
			return nil
		}
		// Node of PE 0 is 0; node of PE 5 is Gray(5) = 7: three bits away.
		return map[int]lockstep.Msg{5: 1}
	})
	if err == nil {
		t.Fatal("send across a non-edge was not rejected")
	}
}

// TestLinearProgramsOnHypercube runs the linear-array odd-even
// transposition sort unchanged on hypercube links: consecutive labels are
// adjacent under the Gray-code embedding, so the program's ID±1 sends are
// all legal single hops.
func TestLinearProgramsOnHypercube(t *testing.T) {
	dim := 4
	n := 1 << dim
	r := lockstep.NewHypercubeGray(dim, nil)
	err := r.Run(1, func(pe *lockstep.PE) map[int]lockstep.Msg {
		sends := map[int]lockstep.Msg{}
		if pe.ID+1 < pe.N {
			sends[pe.ID+1] = pe.ID
		}
		if pe.ID-1 >= 0 {
			sends[pe.ID-1] = pe.ID
		}
		return sends
	})
	if err != nil {
		t.Fatalf("ID±1 sends illegal on hypercube links: %v (n=%d)", err, n)
	}
}
