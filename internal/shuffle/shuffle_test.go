package shuffle

import (
	"math/rand"
	"sort"
	"testing"

	"dyncg/internal/colstore"
	"dyncg/internal/curve"
	"dyncg/internal/machine"
	"dyncg/internal/penvelope"
	"dyncg/internal/pieces"
	"dyncg/internal/poly"
)

func TestValidation(t *testing.T) {
	for _, q := range []int{0, 14} {
		if _, err := New(q); err == nil {
			t.Errorf("q=%d accepted", q)
		}
	}
	s := MustNew(5)
	if s.Size() != 32 {
		t.Fatalf("size = %d", s.Size())
	}
}

func TestConstantDegree(t *testing.T) {
	s := MustNew(8)
	for v := 0; v < s.Size(); v++ {
		nbs := s.Neighbors(v)
		if len(nbs) == 0 || len(nbs) > 3 {
			t.Fatalf("node %d has %d neighbours", v, len(nbs))
		}
		for _, u := range nbs {
			if u == v {
				t.Fatalf("self loop at %d", v)
			}
			if s.Distance(v, u) != 1 {
				t.Fatalf("neighbour at distance %d", s.Distance(v, u))
			}
		}
	}
}

func TestDiameterLogarithmic(t *testing.T) {
	for _, q := range []int{3, 6, 9} {
		s := MustNew(q)
		if s.Diameter() > 3*q {
			t.Fatalf("q=%d diameter %d > 3q", q, s.Diameter())
		}
	}
}

func TestMetric(t *testing.T) {
	s := MustNew(7)
	r := rand.New(rand.NewSource(5))
	for trial := 0; trial < 400; trial++ {
		a, b, c := r.Intn(s.Size()), r.Intn(s.Size()), r.Intn(s.Size())
		if s.Distance(a, b) != s.Distance(b, a) {
			t.Fatal("not symmetric")
		}
		if s.Distance(a, c) > s.Distance(a, b)+s.Distance(b, c) {
			t.Fatal("triangle inequality violated")
		}
	}
}

// TestAlgorithmsRunUnchanged: sort and the Theorem 3.2 envelope work on
// the shuffle-exchange network, per the paper's §1 suggestion.
func TestAlgorithmsRunUnchanged(t *testing.T) {
	m := machine.New(MustNew(8)) // 256 PEs
	r := rand.New(rand.NewSource(6))
	vals := make([]int, 256)
	for i := range vals {
		vals[i] = r.Intn(5000)
	}
	regs := colstore.Scatter(256, vals)
	machine.SortCols(m, regs, func(a, b int) bool { return a < b })
	got := regs.Gather()
	want := append([]int{}, vals...)
	sort.Ints(want)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sort mismatch at %d", i)
		}
	}

	n := 8
	cs := make([]curve.Curve, n)
	for i := range cs {
		cs[i] = curve.NewPoly(poly.New(r.NormFloat64()*4, r.NormFloat64(), 0.4))
	}
	want2 := pieces.EnvelopeOfCurves(cs, pieces.Min)
	m2 := machine.New(MustNew(8))
	got2, err := penvelope.EnvelopeOfCurves(m2, cs, pieces.Min)
	if err != nil {
		t.Fatal(err)
	}
	if len(got2) != len(want2) {
		t.Fatalf("envelope %d pieces, want %d", len(got2), len(want2))
	}
	if m2.Stats().Time() <= 0 {
		t.Fatal("no cost charged")
	}
}
