// Package motion implements the paper's input model (§2.4): systems of n
// point-objects moving in Euclidean d-dimensional space with k-motion —
// every coordinate of every trajectory is a polynomial of degree at most
// k in the time variable, no two points share an initial position, and
// each trajectory has a Θ(1)-size description held by one PE.
//
// It also provides the derived bounded-degree curves the algorithms of
// §4–§5 consume (squared distances: degree ≤ 2k; coordinate projections:
// degree ≤ k) and workload generators for the benchmark harness.
package motion

import (
	"errors"
	"fmt"
	"math/rand"

	"dyncg/internal/curve"
	"dyncg/internal/poly"
	"dyncg/internal/ratfun"
)

// ErrBadSystem reports an input that violates the paper's §2.4 model (an
// empty system, mixed dimensions, coincident initial positions) or a
// query that does not fit the system (an out-of-range origin, a
// dimension mismatch). Every such validation error in this package and
// internal/core wraps it; test with errors.Is. The facade re-exports it
// as dyncg.ErrBadSystem.
var ErrBadSystem = errors.New("motion: invalid system of moving points")

// Point is one moving point-object: Coord[i] is the polynomial giving its
// i-th coordinate as a function of time.
type Point struct {
	Coord []poly.Poly
}

// NewPoint builds a point from its coordinate polynomials.
func NewPoint(coords ...poly.Poly) Point { return Point{Coord: coords} }

// Dim returns the dimension of the space the point moves in.
func (p Point) Dim() int { return len(p.Coord) }

// At returns the position at time t.
func (p Point) At(t float64) []float64 {
	pos := make([]float64, len(p.Coord))
	for i, c := range p.Coord {
		pos[i] = c.Eval(t)
	}
	return pos
}

// Degree returns the maximum degree over the coordinates — the point's k.
func (p Point) Degree() int {
	k := 0
	for _, c := range p.Coord {
		if d := c.Degree(); d > k {
			k = d
		}
	}
	return k
}

// DistSq returns the squared Euclidean distance between p and q as a
// polynomial of degree ≤ 2k — the function d²_{ij}(t) of §4.1.
func (p Point) DistSq(q Point) poly.Poly {
	if p.Dim() != q.Dim() {
		panic("motion: dimension mismatch")
	}
	var sum poly.Poly
	for i := range p.Coord {
		d := p.Coord[i].Sub(q.Coord[i])
		sum = sum.Add(d.Sq())
	}
	return sum
}

// AngleTo returns the angle function T(t) of the direction from p to q
// (§4.2), represented by its polynomial direction vector (planar points
// only).
func (p Point) AngleTo(q Point) curve.Angle {
	if p.Dim() != 2 || q.Dim() != 2 {
		panic("motion: AngleTo requires planar points")
	}
	return curve.NewAngle(q.Coord[0].Sub(p.Coord[0]), q.Coord[1].Sub(p.Coord[1]))
}

// SteadyX returns coordinate i as an element of the ordered field of
// rational functions at t → ∞, the representation used by the
// steady-state algorithms of §5 via Lemma 5.1.
func (p Point) Steady(i int) ratfun.RatFun { return ratfun.FromPoly(p.Coord[i]) }

// System is a dynamic system of moving point-objects.
type System struct {
	Points []Point
	K      int // motion degree bound
	D      int // dimension
}

// NewSystem validates and wraps a set of points (all must share one
// dimension d ≥ 1; K is the observed maximum degree).
func NewSystem(pts []Point) (*System, error) {
	if len(pts) == 0 {
		return nil, fmt.Errorf("empty system: %w", ErrBadSystem)
	}
	d := pts[0].Dim()
	if d < 1 {
		return nil, fmt.Errorf("points have no coordinates (dimension 0): %w", ErrBadSystem)
	}
	k := 0
	for i, p := range pts {
		if p.Dim() != d {
			return nil, fmt.Errorf("point %d has dimension %d, want %d: %w", i, p.Dim(), d, ErrBadSystem)
		}
		if pd := p.Degree(); pd > k {
			k = pd
		}
	}
	for i := 0; i < len(pts); i++ {
		for j := i + 1; j < len(pts); j++ {
			if pts[i].SameStart(pts[j]) {
				return nil, fmt.Errorf("points %d and %d share an initial position (violates §2.4): %w", i, j, ErrBadSystem)
			}
		}
	}
	return &System{Points: pts, K: k, D: d}, nil
}

// SameStart reports whether p and q, of one dimension, share an initial
// position: the coincidence §2.4 forbids within a system.
func (p Point) SameStart(q Point) bool {
	for c := range p.Coord {
		if p.Coord[c].Eval(0) != q.Coord[c].Eval(0) {
			return false
		}
	}
	return true
}

// N returns the number of points.
func (s *System) N() int { return len(s.Points) }

// DistSqCurves returns the curves d²_{0j}(t) for j ≠ origin — the inputs
// to the closest/farthest-point algorithms of §4.1 (Theorem 4.1). IDs in
// the returned slice are the point indices j (compacted, origin skipped).
func (s *System) DistSqCurves(origin int) ([]curve.Curve, []int) {
	cs := make([]curve.Curve, 0, s.N()-1)
	ids := make([]int, 0, s.N()-1)
	for j, q := range s.Points {
		if j == origin {
			continue
		}
		cs = append(cs, curve.NewPoly(s.Points[origin].DistSq(q)))
		ids = append(ids, j)
	}
	return cs, ids
}

// CoordCurves returns the projections p_i(f_j(t)) for all points j — the
// inputs to the containment algorithms of §4.3.
func (s *System) CoordCurves(i int) []curve.Curve {
	cs := make([]curve.Curve, s.N())
	for j, p := range s.Points {
		cs[j] = curve.NewPoly(p.Coord[i])
	}
	return cs
}

// --- Workload generators -----------------------------------------------

// Random returns a random system of n points with k-motion in d
// dimensions: initial positions uniform in [-scale, scale]^d and higher
// coefficients Gaussian, shrinking with degree so mid-range times keep
// interesting crossings.
func Random(r *rand.Rand, n, k, d int, scale float64) *System {
	for {
		pts := make([]Point, n)
		for i := range pts {
			coords := make([]poly.Poly, d)
			for c := range coords {
				cf := make([]float64, k+1)
				cf[0] = (r.Float64()*2 - 1) * scale
				for deg := 1; deg <= k; deg++ {
					cf[deg] = r.NormFloat64() * scale / float64(deg*deg*2)
				}
				coords[c] = poly.New(cf...)
			}
			pts[i] = NewPoint(coords...)
		}
		s, err := NewSystem(pts)
		if err == nil {
			return s
		}
		// Re-roll on the (measure-zero) initial-position collision.
	}
}

// Converging returns n points in the plane that all head toward the
// origin with distinct linear motions — a collision-heavy workload for
// Theorem 4.2.
func Converging(r *rand.Rand, n int) *System {
	pts := make([]Point, n)
	for i := range pts {
		x0 := (r.Float64()*2 - 1) * 10
		y0 := (r.Float64()*2 - 1) * 10
		arrive := 1 + r.Float64()*9 // reaches the origin at this time
		pts[i] = NewPoint(
			poly.New(x0, -x0/arrive),
			poly.New(y0, -y0/arrive),
		)
	}
	s, err := NewSystem(pts)
	if err != nil {
		return Converging(r, n) // re-roll duplicate starts
	}
	return s
}

// OnCircle returns n static points on a circle (k = 0) — every point is a
// hull vertex; the classic worst case for hull-size-dependent algorithms.
func OnCircle(n int, radius float64) *System {
	pts := make([]Point, n)
	for i := range pts {
		// Rational approximations of the circle via the tan-half-angle
		// parameterisation keep coordinates exact-friendly.
		u := 2*float64(i)/float64(n) - 1 // in [-1, 1)
		den := 1 + u*u
		pts[i] = NewPoint(
			poly.Constant(radius*(1-u*u)/den),
			poly.Constant(radius*2*u/den),
		)
	}
	s, err := NewSystem(pts)
	if err != nil {
		panic(err)
	}
	return s
}

// Diverging returns n planar points with distinct velocity directions, so
// that in steady state every point is extreme (hull of directions), a
// stress case for §5's hull/diameter/rectangle algorithms.
func Diverging(r *rand.Rand, n int) *System {
	pts := make([]Point, n)
	for i := range pts {
		u := 2*float64(i)/float64(n) - 1
		den := 1 + u*u
		vx, vy := (1-u*u)/den, 2*u/den
		pts[i] = NewPoint(
			poly.New((r.Float64()*2-1)*3, vx),
			poly.New((r.Float64()*2-1)*3, vy),
		)
	}
	s, err := NewSystem(pts)
	if err != nil {
		return Diverging(r, n)
	}
	return s
}
