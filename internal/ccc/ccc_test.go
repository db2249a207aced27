package ccc

import (
	"math/rand"
	"sort"
	"testing"

	"dyncg/internal/colstore"
	"dyncg/internal/curve"
	"dyncg/internal/hypercube"
	"dyncg/internal/machine"
	"dyncg/internal/penvelope"
	"dyncg/internal/pieces"
	"dyncg/internal/poly"
)

func TestNewValidation(t *testing.T) {
	for _, q := range []int{0, 3, 5, 6, 7, 9} {
		if _, err := New(q); err == nil {
			t.Errorf("q=%d accepted", q)
		}
	}
	for _, q := range []int{1, 2, 4, 8} {
		c, err := New(q)
		if err != nil {
			t.Fatalf("q=%d rejected: %v", q, err)
		}
		if c.Size() != q<<q {
			t.Fatalf("q=%d size %d, want %d", q, c.Size(), q<<q)
		}
	}
}

// TestDegreeThree: every PE has at most 3 links, the CCC's defining
// property (2 for the degenerate q=1).
func TestDegreeThree(t *testing.T) {
	for _, q := range []int{2, 4, 8} {
		c := MustNew(q)
		for v := 0; v < c.Size(); v++ {
			nbs := c.Neighbors(v)
			if len(nbs) > 3 {
				t.Fatalf("q=%d: PE %d has %d neighbours", q, v, len(nbs))
			}
			for _, u := range nbs {
				if c.Distance(v, u) != 1 {
					t.Fatalf("q=%d: neighbour %d of %d at distance %d",
						q, u, v, c.Distance(v, u))
				}
			}
		}
	}
}

// TestDistanceMetric: symmetry and triangle inequality on samples.
func TestDistanceMetric(t *testing.T) {
	c := MustNew(4)
	r := rand.New(rand.NewSource(3))
	for trial := 0; trial < 500; trial++ {
		a, b, d := r.Intn(c.Size()), r.Intn(c.Size()), r.Intn(c.Size())
		if c.Distance(a, b) != c.Distance(b, a) {
			t.Fatal("distance not symmetric")
		}
		if c.Distance(a, d) > c.Distance(a, b)+c.Distance(b, d) {
			t.Fatal("triangle inequality violated")
		}
	}
	if c.Distance(5, 5) != 0 {
		t.Fatal("self distance nonzero")
	}
}

// TestDiameterLogarithmic: the CCC diameter is Θ(q), far below the mesh's
// Θ(√n).
func TestDiameterLogarithmic(t *testing.T) {
	for _, q := range []int{2, 4, 8} {
		c := MustNew(q)
		// Known bound: diameter ≤ ⌊5q/2⌋ − 2 for q ≥ 4 (Preparata–
		// Vuillemin); assert the loose form 3q.
		if c.Diameter() > 3*q {
			t.Fatalf("q=%d diameter %d > 3q", q, c.Diameter())
		}
	}
}

// TestMachineOpsOnCCC: the full data-movement repertoire runs unchanged
// (correctness is topology-independent; only the charged cost differs).
func TestMachineOpsOnCCC(t *testing.T) {
	c := MustNew(4) // 64 PEs
	m := machine.New(c)
	r := rand.New(rand.NewSource(7))
	vals := make([]int, 64)
	for i := range vals {
		vals[i] = r.Intn(1000)
	}
	regs := colstore.Scatter(64, vals)
	machine.SortCols(m, regs, func(a, b int) bool { return a < b })
	got := regs.Gather()
	want := append([]int{}, vals...)
	sort.Ints(want)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("CCC sort mismatch at %d", i)
		}
	}
	if m.Stats().Time() <= 0 {
		t.Fatal("no cost charged")
	}
}

// TestEnvelopeOnCCC: Theorem 3.2 runs on the paper's suggested "other
// architecture" and produces the exact envelope; its cost lies between
// the hypercube's (CCC emulates the cube with constant slowdown) and the
// mesh's.
func TestEnvelopeOnCCC(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	n := 16
	cs := make([]curve.Curve, n)
	for i := range cs {
		cs[i] = curve.NewPoly(poly.New(r.NormFloat64()*4, r.NormFloat64(), 0.3+r.Float64()))
	}
	want := pieces.EnvelopeOfCurves(cs, pieces.Min)

	mc := machine.New(MustNew(8)) // 2048 PEs ≥ CubePEs(16, 2)
	got, err := penvelope.EnvelopeOfCurves(mc, cs, pieces.Min)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("CCC envelope %d pieces, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i].ID != want[i].ID {
			t.Fatalf("piece %d: ID %d vs %d", i, got[i].ID, want[i].ID)
		}
	}
	// Exploratory cost comparison: the CCC (degree 3) must pay more than
	// the same-size hypercube (degree log n) but stay polylogarithmic in
	// spirit — assert it is within a O(q) factor of the cube.
	mh := machine.New(hypercube.MustNew(2048))
	if _, err := penvelope.EnvelopeOfCurves(mh, cs, pieces.Min); err != nil {
		t.Fatal(err)
	}
	ccc, cube := mc.Stats().Time(), mh.Stats().Time()
	if ccc < cube {
		t.Fatalf("CCC (%d) cheaper than hypercube (%d)?", ccc, cube)
	}
	if ccc > 16*cube {
		t.Fatalf("CCC (%d) more than q× costlier than hypercube (%d)", ccc, cube)
	}
}
