package pram

import (
	"math/bits"
	"math/rand"
	"testing"

	"dyncg/internal/colstore"
	"dyncg/internal/curve"
	"dyncg/internal/hypercube"
	"dyncg/internal/machine"
	"dyncg/internal/mesh"
	"dyncg/internal/pieces"
	"dyncg/internal/poly"
)

func randCurves(n int) []curve.Curve {
	r := rand.New(rand.NewSource(9))
	cs := make([]curve.Curve, n)
	for i := range cs {
		cs[i] = curve.NewPoly(poly.New(r.NormFloat64()*4, r.NormFloat64(), 0.5+r.Float64()))
	}
	return cs
}

func TestEnvelopeResultExact(t *testing.T) {
	cs := randCurves(32)
	m := machine.New(hypercube.MustNew(32))
	env, steps := Envelope(m, cs, pieces.Min)
	want := pieces.EnvelopeOfCurves(cs, pieces.Min)
	if len(env) != len(want) {
		t.Fatalf("pieces %d, want %d", len(env), len(want))
	}
	if wantSteps := StepsPerLevel * bits.Len(uint(32)); steps != wantSteps {
		t.Fatalf("steps = %d, want %d", steps, wantSteps)
	}
}

// TestSimulationCostDominates: the PRAM simulation must cost strictly
// more than one native sort per level, and its mesh cost must carry the
// extra Θ(log n) factor of §6 relative to a single sort.
func TestSimulationCostDominates(t *testing.T) {
	n := 1024
	cs := randCurves(n)
	m := machine.New(mesh.MustNew(n, mesh.Proximity))
	Envelope(m, cs, pieces.Min)
	pramCost := m.Stats().Time()

	m2 := machine.New(mesh.MustNew(n, mesh.Proximity))
	regs := colstore.Scatter(n, make([]int, n))
	machine.SortCols(m2, regs, func(a, b int) bool { return a < b })
	oneSort := m2.Stats().Time()

	levels := bits.Len(uint(n))
	if pramCost < int64(levels)*oneSort {
		t.Fatalf("PRAM simulation cost %d < levels×sort %d", pramCost, int64(levels)*oneSort)
	}
}
