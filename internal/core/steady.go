package core

import (
	"fmt"
	"strconv"

	"dyncg/internal/geom"
	"dyncg/internal/machine"
	"dyncg/internal/motion"
	"dyncg/internal/pgeom"
	"dyncg/internal/poly"
	"dyncg/internal/ratfun"
)

// SteadyPoints lifts a planar system to points over the ordered field of
// rational functions at t → ∞ — the Lemma 5.1 representation every §5
// algorithm runs on.
func SteadyPoints(sys *motion.System) ([]geom.Point[ratfun.RatFun], error) {
	if sys.D != 2 {
		return nil, fmt.Errorf("core: steady-state algorithms are planar, got d=%d: %w", sys.D, motion.ErrBadSystem)
	}
	pts := make([]geom.Point[ratfun.RatFun], sys.N())
	for i, p := range sys.Points {
		pts[i] = geom.Point[ratfun.RatFun]{X: p.Steady(0), Y: p.Steady(1), ID: i}
	}
	return pts, nil
}

// SteadyNearestViaTransient is the naive alternative the §5 introduction
// warns about: build the full transient closest-point sequence of
// Theorem 4.1 (λ_M(n−1, 2k) PEs, Θ(λ^{1/2}) time) and take its last
// element. Kept as the ablation baseline for comparison C3 (DESIGN.md).
func SteadyNearestViaTransient(m *machine.M, sys *motion.System, origin int) (int, error) {
	seq, err := ClosestPointSequence(m, sys, origin)
	if err != nil {
		return -1, err
	}
	if len(seq) == 0 {
		return -1, fmt.Errorf("core: empty neighbour sequence")
	}
	return seq[len(seq)-1].Point, nil
}

// SteadyClosestPair implements Proposition 5.3 on Θ(n) PEs:
// Θ(√n) mesh, Θ(log² n) hypercube.
func SteadyClosestPair(m *machine.M, sys *motion.System) (int, int, error) {
	if m.Observed() {
		m.SpanBegin("prop5.3-steady-cp", "n", strconv.Itoa(sys.N()))
		defer m.SpanEnd()
	}
	pts, err := SteadyPoints(sys)
	if err != nil {
		return -1, -1, err
	}
	a, b, _ := pgeom.ClosestPair(m, pts)
	return a, b, nil
}

// SteadyHull implements Proposition 5.4: the steady-state hull(S), as
// point indices in CCW order. Θ(n) PEs; sort-bounded time.
func SteadyHull(m *machine.M, sys *motion.System) ([]int, error) {
	if m.Observed() {
		m.SpanBegin("prop5.4-steady-hull", "n", strconv.Itoa(sys.N()))
		defer m.SpanEnd()
	}
	pts, err := SteadyPoints(sys)
	if err != nil {
		return nil, err
	}
	return pgeom.HullSteady(m, pts)
}

// SteadyFarthestPair implements Corollary 5.7: steady-state hull, then
// the diameter via antipodal pairs (Lemma 5.5, Proposition 5.6).
// It returns the two point indices and the squared-distance polynomial of
// the pair — the "diameter function" of Proposition 5.6, valid for all
// sufficiently large t.
func SteadyFarthestPair(m *machine.M, sys *motion.System) (int, int, poly.Poly, error) {
	if m.Observed() {
		m.SpanBegin("cor5.7-steady-farthest", "n", strconv.Itoa(sys.N()))
		defer m.SpanEnd()
	}
	pts, err := SteadyPoints(sys)
	if err != nil {
		return -1, -1, nil, err
	}
	hullIdx, err := pgeom.HullSteady(m, pts)
	if err != nil {
		return -1, -1, nil, err
	}
	if len(hullIdx) < 2 {
		return -1, -1, nil, fmt.Errorf("core: degenerate steady hull")
	}
	if len(hullIdx) == 2 {
		d2 := sys.Points[hullIdx[0]].DistSq(sys.Points[hullIdx[1]])
		return hullIdx[0], hullIdx[1], d2, nil
	}
	a, b, _ := pgeom.FarthestPair(m, pts, hullIdx)
	return a, b, sys.Points[a].DistSq(sys.Points[b]), nil
}

// SteadyRect is a steady-state minimal-area enclosing rectangle: the
// corners are rational functions of time describing the rectangle for
// all sufficiently large t, with Area their (rational) area function.
type SteadyRect = geom.Rect[ratfun.RatFun]

// SteadyMinAreaRect implements Corollary 5.9: steady-state hull
// (Proposition 5.4) followed by Theorem 5.8's per-edge rectangle
// construction. Θ(n) PEs; Θ(√n) mesh / sort-bounded hypercube time.
func SteadyMinAreaRect(m *machine.M, sys *motion.System) (SteadyRect, error) {
	if m.Observed() {
		m.SpanBegin("cor5.9-steady-rect", "n", strconv.Itoa(sys.N()))
		defer m.SpanEnd()
	}
	pts, err := SteadyPoints(sys)
	if err != nil {
		return SteadyRect{}, err
	}
	hullIdx, err := pgeom.HullSteady(m, pts)
	if err != nil {
		return SteadyRect{}, err
	}
	if len(hullIdx) < 3 {
		return SteadyRect{}, fmt.Errorf("core: steady hull has %d vertices; rectangle undefined", len(hullIdx))
	}
	hull := make([]geom.Point[ratfun.RatFun], len(hullIdx))
	for i, j := range hullIdx {
		hull[i] = pts[j]
	}
	return pgeom.MinAreaRect(m, hull), nil
}

// StaticPointsAt evaluates the system at a fixed time as float points —
// used by tests to validate transient results against static geometry.
func StaticPointsAt(sys *motion.System, t float64) []geom.Point[ratfun.F64] {
	pts := make([]geom.Point[ratfun.F64], sys.N())
	for i, p := range sys.Points {
		pos := p.At(t)
		pts[i] = geom.Point[ratfun.F64]{X: ratfun.F64(pos[0]), Y: ratfun.F64(pos[1]), ID: i}
	}
	return pts
}
