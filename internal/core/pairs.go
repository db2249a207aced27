package core

import (
	"fmt"
	"strconv"

	"dyncg/internal/colstore"
	"dyncg/internal/curve"
	"dyncg/internal/dsseq"
	"dyncg/internal/machine"
	"dyncg/internal/motion"
	"dyncg/internal/penvelope"
	"dyncg/internal/pieces"
	"dyncg/internal/poly"
)

// PairEvent is one element of the chronological closest/farthest-pair
// sequence of §6: points A and B form the closest (farthest) pair of the
// whole system throughout [Lo, Hi].
type PairEvent struct {
	A, B   int
	Lo, Hi float64
}

// ClosestPairSequence implements the extension described in §6 ("Further
// Remarks"): with a mesh of λ_M(n(n−1)/2, 2k) or a hypercube of
// λ_H(n(n−1)/2, 2k) PEs, trivial modifications of Theorem 4.1 yield the
// chronological sequence of closest pairs — one squared-distance
// polynomial per pair, then one minimum-function construction. Time:
// Θ(λ^{1/2}(n(n−1)/2, 2k)) mesh, Θ(log² n) hypercube. Size machines with
// PairSequencePEs.
func ClosestPairSequence(m *machine.M, sys *motion.System) ([]PairEvent, error) {
	return pairSequence(m, sys, pieces.Min)
}

// FarthestPairSequence is the farthest-pair variant (the system diameter
// function over time).
func FarthestPairSequence(m *machine.M, sys *motion.System) ([]PairEvent, error) {
	return pairSequence(m, sys, pieces.Max)
}

// PairSequencePEs returns the PE count §6 prescribes for the pair
// sequences: Θ(λ(n(n−1)/2, 2k)), rounded for the topology by the caller
// (penvelope.MeshPEs/CubePEs round internally, so this returns the function count).
func PairSequencePEs(n, k int) int {
	return dsseq.LambdaBound(n*(n-1)/2, 2*k)
}

func pairSequence(m *machine.M, sys *motion.System, kind pieces.Kind) ([]PairEvent, error) {
	n := sys.N()
	if n < 2 {
		return nil, fmt.Errorf("core: pair sequence needs at least two points: %w", motion.ErrBadSystem)
	}
	if m.Observed() {
		name := "s6-closest-pair-seq"
		if kind == pieces.Max {
			name = "s6-farthest-pair-seq"
		}
		m.SpanBegin(name, "n", strconv.Itoa(n), "pairs", strconv.Itoa(n*(n-1)/2))
		defer m.SpanEnd()
	}
	// One PE per pair builds d²_{ij}(t) — Θ(1) local work after an
	// all-pairs replication, which is itself a sort-bounded grouping
	// (charged here as one sort-equivalent round over the machine).
	type pair struct{ a, b int }
	var pairs []pair
	cs := make([]curve.Curve, 0, n*(n-1)/2)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			pairs = append(pairs, pair{i, j})
			cs = append(cs, curve.NewPoly(sys.Points[i].DistSq(sys.Points[j])))
		}
	}
	chargeReplication(m)
	env, err := penvelope.EnvelopeOfCurves(m, cs, kind)
	if err != nil {
		return nil, err
	}
	out := make([]PairEvent, len(env))
	for i, p := range env {
		out[i] = PairEvent{A: pairs[p.ID].a, B: pairs[p.ID].b, Lo: p.Lo, Hi: p.Hi}
	}
	return out, nil
}

// chargeReplication charges the all-pairs data replication: distributing
// the n trajectories to the n(n−1)/2 pair-PEs is a grouping (sort-based
// concurrent read) on the pair machine.
func chargeReplication(m *machine.M) {
	machine.ChargeSort(m, m.Size())
}

// SerialClosestPairSequence is the serial baseline for the §6 pair
// sequence.
func SerialClosestPairSequence(sys *motion.System, kind pieces.Kind) []PairEvent {
	n := sys.N()
	type pair struct{ a, b int }
	var pairs []pair
	var cs []curve.Curve
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			pairs = append(pairs, pair{i, j})
			cs = append(cs, curve.NewPoly(sys.Points[i].DistSq(sys.Points[j])))
		}
	}
	env := pieces.EnvelopeOfCurves(cs, kind)
	out := make([]PairEvent, len(env))
	for i, p := range env {
		out[i] = PairEvent{A: pairs[p.ID].a, B: pairs[p.ID].b, Lo: p.Lo, Hi: p.Hi}
	}
	return out
}

// SteadyNearestNeighborD solves Proposition 5.2 in any fixed dimension d
// (the proposition is stated for d-dimensional space; the planar
// restriction elsewhere in §5 is only needed by the hull-based
// algorithms): broadcast the query trajectory, Θ(1) local construction
// of d²_{0j}, then a semigroup under the Lemma 5.1 steady-state order.
func SteadyNearestNeighborD(m *machine.M, sys *motion.System, origin int, farthest bool) (int, error) {
	if origin < 0 || origin >= sys.N() {
		return -1, fmt.Errorf("core: origin %d out of range: %w", origin, motion.ErrBadSystem)
	}
	if m.Observed() {
		m.SpanBegin("s6-steady-nn-d", "n", strconv.Itoa(sys.N()), "d", strconv.Itoa(sys.D))
		defer m.SpanEnd()
	}
	n := m.Size()
	fregs := colstore.New[motion.Point](n)
	fregs.Set(origin%n, sys.Points[origin])
	machine.SpreadCols(m, fregs, machine.WholeMachine(n))
	m.ChargeLocal(1)
	type cand struct {
		d2 []float64 // polynomial coefficients of d²
		id int
	}
	regs := colstore.New[cand](n)
	for j, q := range sys.Points {
		if j == origin {
			continue
		}
		regs.Set(j%n, cand{d2: sys.Points[origin].DistSq(q), id: j})
	}
	machine.SemigroupCols(m, regs, machine.WholeMachine(n), func(a, b cand) cand {
		// Lemma 5.1: compare bounded-degree polynomials at t → ∞.
		c := poly.Poly(a.d2).CompareAtInfinity(poly.Poly(b.d2))
		if farthest {
			c = -c
		}
		if c < 0 || (c == 0 && a.id < b.id) {
			return a
		}
		return b
	})
	if c, ok := regs.First(); ok {
		return c.id, nil
	}
	return -1, fmt.Errorf("core: no neighbour found")
}
