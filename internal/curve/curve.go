// Package curve defines the real-valued functions of time that the
// paper's envelope algorithms operate on.
//
// Section 6 of the paper lists the four properties a function family must
// satisfy for the algorithms to apply: (1) continuity on its domain,
// (2) a Θ(1)-storage description, (3) Θ(1)-time evaluation, and (4) at most
// k pairwise intersections, computable in Θ(1) time. The Curve interface is
// the direct transcription of those properties. Two families are provided:
// polynomial curves (trajectories, squared distances, coordinate spans) and
// angle curves (the T_ij functions of §4.2, represented by their direction
// vector rather than by arctan so that all predicates stay polynomial).
package curve

import (
	"fmt"
	"math"

	"dyncg/internal/poly"
)

// Curve is a continuous real-valued function of time with the Θ(1)
// description/evaluation/intersection properties of §6.
//
// Intersections must be called with curves of the same family (the paper's
// algorithms only ever compare functions drawn from one family F).
type Curve interface {
	// Eval evaluates the curve at time t ≥ 0.
	Eval(t float64) float64
	// Intersections returns the times in [lo, hi] at which the curve
	// equals other, in increasing order, together with an "identical"
	// flag that is true when the two curves coincide as functions (in
	// which case the time slice is empty).
	Intersections(other Curve, lo, hi float64) (times []float64, identical bool)
	// String returns a compact human-readable description.
	String() string
}

// Poly is a polynomial curve.
type Poly struct{ P poly.Poly }

// NewPoly wraps a polynomial as a Curve.
func NewPoly(p poly.Poly) Poly { return Poly{P: p} }

// Const returns the constant curve c.
func Const(c float64) Poly { return Poly{P: poly.Constant(c)} }

// Eval evaluates the polynomial at t.
func (c Poly) Eval(t float64) float64 { return c.P.Eval(t) }

// Intersections implements Curve for polynomial-vs-polynomial.
func (c Poly) Intersections(other Curve, lo, hi float64) ([]float64, bool) {
	o, ok := other.(Poly)
	if !ok {
		panic(fmt.Sprintf("curve: Poly intersected with %T", other))
	}
	return c.appendIntersections(nil, o, lo, hi)
}

// stackLen is the coefficient capacity of each stack buffer an
// intersection test builds a difference, product, cross or dot
// polynomial in: products of two degree-7 polynomials fit, and longer
// polynomials fall back to the heap with the same coefficients.
const stackLen = 16

// appendIntersections is Intersections appending to dst, with the
// difference polynomial built on the stack.
func (c Poly) appendIntersections(dst []float64, o Poly, lo, hi float64) ([]float64, bool) {
	var buf [stackLen]float64
	d := poly.SubTo(buf[:0], c.P, o.P)
	if d.IsZero() {
		return dst, true
	}
	return d.AppendRoots(dst, lo, hi), false
}

// String implements Curve.
func (c Poly) String() string { return c.P.String() }

// Angle is the angle function T(t) of §4.2: the angle in (−π, π] of the
// moving direction vector (DX(t), DY(t)), e.g. from point P_i to point P_j.
// It is represented by the vector itself; every predicate (comparison,
// intersection, antiparallelism) reduces to polynomial sign tests and root
// isolation, exactly as in the proof of Theorem 4.5.
type Angle struct {
	DX, DY poly.Poly
}

// NewAngle returns the angle curve of the vector (dx(t), dy(t)).
func NewAngle(dx, dy poly.Poly) Angle { return Angle{DX: dx, DY: dy} }

// Eval returns the angle atan2(DY(t), DX(t)) ∈ (−π, π].
func (c Angle) Eval(t float64) float64 {
	y, x := c.DY.Eval(t), c.DX.Eval(t)
	a := math.Atan2(y, x)
	if a == -math.Pi { // normalize to (−π, π]
		a = math.Pi
	}
	return a
}

// Defined reports whether the angle exists at t (the vector is nonzero);
// it vanishes exactly at collision times (§4.2: T undefined when the two
// points coincide).
func (c Angle) Defined(t float64) bool {
	return c.DX.SignAt(t) != 0 || c.DY.SignAt(t) != 0
}

// angleBufs is stack storage for the products, cross and dot
// polynomials of one Angle predicate.
type angleBufs struct {
	p, q, cross, dot, roots [stackLen]float64
}

// crossTo returns DX·other.DY − DY·other.DX, the polynomial whose roots
// are the times at which the two vectors are parallel (proof of
// Theorem 4.5), built in b.
func (c Angle) crossTo(b *angleBufs, o Angle) poly.Poly {
	return poly.SubTo(b.cross[:0], poly.MulTo(b.p[:0], c.DX, o.DY), poly.MulTo(b.q[:0], c.DY, o.DX))
}

// dotTo returns DX·other.DX + DY·other.DY, built in b.
func (c Angle) dotTo(b *angleBufs, o Angle) poly.Poly {
	return poly.AddTo(b.dot[:0], poly.MulTo(b.p[:0], c.DX, o.DX), poly.MulTo(b.q[:0], c.DY, o.DY))
}

// Intersections returns the times in [lo, hi] at which the two angle
// functions are equal: the vectors are parallel (cross = 0) and similarly
// oriented (dot > 0). Per Theorem 4.5 this is a Θ(1) computation on
// bounded-degree polynomials.
func (c Angle) Intersections(other Curve, lo, hi float64) ([]float64, bool) {
	o, ok := other.(Angle)
	if !ok {
		panic(fmt.Sprintf("curve: Angle intersected with %T", other))
	}
	return c.appendIntersections(nil, o, lo, hi)
}

// appendIntersections is Intersections appending to dst, with the cross
// and dot polynomials built on the stack.
func (c Angle) appendIntersections(dst []float64, o Angle, lo, hi float64) ([]float64, bool) {
	var b angleBufs
	cr := c.crossTo(&b, o)
	if cr.IsZero() {
		// Always parallel. Identical iff also always similarly oriented.
		// Otherwise the two are antiparallel throughout (or flip at
		// isolated collisions): equal only where dot > 0; for
		// bounded-degree motion this is a union of intervals, which the
		// piecewise layer handles by domain splitting, so report no
		// isolated intersections.
		return dst, c.parallelSame(&b, o)
	}
	return appendParallelTimes(dst, &b, cr, c.dotTo(&b, o), lo, hi, +1), false
}

// parallelSame reports whether two everywhere-parallel vectors are also
// similarly oriented at every t ≥ 0, which makes the angle curves equal.
func (c Angle) parallelSame(b *angleBufs, o Angle) bool {
	dt := c.dotTo(b, o)
	return dt.SignAtInfinity() > 0 && len(dt.AppendRoots(b.roots[:0], 0, math.Inf(1))) == 0
}

// appendParallelTimes appends the roots of cr in [lo, hi] at which dt has
// the given sign.
func appendParallelTimes(dst []float64, b *angleBufs, cr, dt poly.Poly, lo, hi float64, sign int) []float64 {
	for _, r := range cr.AppendRoots(b.roots[:0], lo, hi) {
		if dt.SignAt(r) == sign {
			dst = append(dst, r)
		}
	}
	return dst
}

// AppendAntiparallelTimes appends to dst the times in [lo, hi] at which
// the two angle curves differ by exactly π: vectors parallel (cross = 0)
// and oppositely oriented (dot < 0). Used to locate a₀−d₀ = π events in
// Theorem 4.5.
func (c Angle) AppendAntiparallelTimes(dst []float64, o Angle, lo, hi float64) []float64 {
	var b angleBufs
	cr := c.crossTo(&b, o)
	if cr.IsZero() {
		return dst
	}
	return appendParallelTimes(dst, &b, cr, c.dotTo(&b, o), lo, hi, -1)
}

// AppendIntersections appends the times a.Intersections(b, lo, hi)
// reports to dst and returns the extended slice with the identical flag.
// Poly and Angle pairs run on stack buffers, so a dst on the caller's
// stack stays there; other families go through the Curve interface.
func AppendIntersections(dst []float64, a, b Curve, lo, hi float64) ([]float64, bool) {
	switch a := a.(type) {
	case Poly:
		if b, ok := b.(Poly); ok {
			return a.appendIntersections(dst, b, lo, hi)
		}
	case Angle:
		if b, ok := b.(Angle); ok {
			return a.appendIntersections(dst, b, lo, hi)
		}
	}
	times, ident := a.Intersections(b, lo, hi)
	return append(dst, times...), ident
}

// Same reports whether a and b are the same function — the identical
// flag of a.Intersections(b, 0, ∞) — without isolating any roots. Curves
// of different families are never the same.
func Same(a, b Curve) bool {
	switch a := a.(type) {
	case Poly:
		b, ok := b.(Poly)
		return ok && poly.SubIsZero(a.P, b.P)
	case Angle:
		b, ok := b.(Angle)
		if !ok {
			return false
		}
		var bufs angleBufs
		return a.crossTo(&bufs, b).IsZero() && a.parallelSame(&bufs, b)
	case Rational:
		b, ok := b.(Rational)
		return ok && poly.SubIsZero(a.Num.Mul(b.Den), b.Num.Mul(a.Den))
	}
	_, ident := a.Intersections(b, 0, math.Inf(1))
	return ident
}

// String implements Curve.
func (c Angle) String() string {
	return fmt.Sprintf("atan2(%s, %s)", c.DY, c.DX)
}

var (
	_ Curve = Poly{}
	_ Curve = Angle{}
)
