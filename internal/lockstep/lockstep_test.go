package lockstep

import (
	"math/rand"
	"sort"
	"testing"

	"dyncg/internal/colstore"
	"dyncg/internal/hypercube"
	"dyncg/internal/machine"
	"dyncg/internal/mesh"
)

func TestOddEvenTranspositionSort(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	for _, n := range []int{1, 2, 3, 8, 16, 33, 64} {
		vals := make([]int, n)
		for i := range vals {
			vals[i] = r.Intn(1000)
		}
		got, err := OddEvenTranspositionSort(append([]int{}, vals...))
		if err != nil {
			t.Fatal(err)
		}
		want := append([]int{}, vals...)
		sort.Ints(want)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("n=%d: got %v, want %v", n, got, want)
			}
		}
	}
}

func TestChainSemigroup(t *testing.T) {
	min := func(a, b int) int {
		if a < b {
			return a
		}
		return b
	}
	vals := []int{5, 2, 9, 1, 7, 3}
	got, err := ChainSemigroup(vals, min)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != 1 {
			t.Fatalf("PE %d got %d, want 1", i, v)
		}
	}
	sum := func(a, b int) int { return a + b }
	got, err = ChainSemigroup([]int{1, 2, 3, 4}, sum)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 10 {
		t.Fatalf("sum = %d, want 10", got[0])
	}
}

func TestNonNeighbourSendRejected(t *testing.T) {
	r := New(4, nil)
	err := r.Run(1, func(pe *PE) map[int]Msg {
		if pe.ID == 0 {
			return map[int]Msg{3: "illegal"}
		}
		return nil
	})
	if err == nil {
		t.Fatal("non-neighbour send not rejected")
	}
}

func TestOffMachineSendRejected(t *testing.T) {
	r := New(4, nil)
	err := r.Run(1, func(pe *PE) map[int]Msg {
		if pe.ID == 3 {
			return map[int]Msg{4: "off the edge"}
		}
		return nil
	})
	if err == nil {
		t.Fatal("off-machine send not rejected")
	}
}

// TestCrossValidateWithVectorSimulator: the goroutine runtime and the
// cost-accounting simulator compute identical sorts and semigroup values
// on the same inputs (DESIGN.md S9).
func TestCrossValidateWithVectorSimulator(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	n := 64
	vals := make([]int, n)
	for i := range vals {
		vals[i] = r.Intn(10000)
	}

	fromLockstep, err := OddEvenTranspositionSort(append([]int{}, vals...))
	if err != nil {
		t.Fatal(err)
	}

	for _, topo := range []machine.Topology{
		mesh.MustNew(n, mesh.Proximity),
		hypercube.MustNew(n),
	} {
		m := machine.New(topo)
		regs := colstore.Scatter(n, vals)
		machine.SortCols(m, regs, func(a, b int) bool { return a < b })
		fromVector := regs.Gather()
		for i := range fromLockstep {
			if fromLockstep[i] != fromVector[i] {
				t.Fatalf("%s: divergence at %d: lockstep %v vs vector %v",
					topo.Name(), i, fromLockstep[i], fromVector[i])
			}
		}
	}

	// Semigroup cross-validation.
	min := func(a, b int) int {
		if a < b {
			return a
		}
		return b
	}
	fromChain, err := ChainSemigroup(vals, min)
	if err != nil {
		t.Fatal(err)
	}
	m := machine.New(hypercube.MustNew(n))
	regs := colstore.Scatter(n, vals)
	machine.SemigroupCols(m, regs, machine.WholeMachine(n), min)
	for i, v := range regs.Val {
		if v != fromChain[i] {
			t.Fatalf("semigroup divergence at PE %d: %d vs %d",
				i, v, fromChain[i])
		}
	}
}

// TestConcurrency: the runtime genuinely runs PEs as goroutines — a step
// that blocks until all PEs have entered would deadlock a sequential
// executor. We emulate that with a shared WaitGroup-free barrier via
// channel counting inside one superstep.
func TestConcurrency(t *testing.T) {
	n := 32
	entered := make(chan int, n)
	release := make(chan struct{})
	r := New(n, nil)
	done := make(chan error, 1)
	go func() {
		done <- r.Run(1, func(pe *PE) map[int]Msg {
			entered <- pe.ID
			<-release
			return nil
		})
	}()
	seen := map[int]bool{}
	for i := 0; i < n; i++ {
		seen[<-entered] = true
	}
	if len(seen) != n {
		t.Fatalf("only %d distinct PEs entered concurrently", len(seen))
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}
