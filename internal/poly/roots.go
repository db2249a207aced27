package poly

import (
	"math"
	"sort"
)

// residualTol is the relative residual below which an evaluation is
// considered an exact zero of the polynomial.
const residualTol = 1e-9

// scaleAt returns Σ|c_i|·|t|^i, the natural magnitude scale of evaluating
// p at t, used for residual-relative zero tests.
func (p Poly) scaleAt(t float64) float64 {
	s := 0.0
	a := math.Abs(t)
	pow := 1.0
	for _, c := range p {
		s += math.Abs(c) * pow
		pow *= a
	}
	if s == 0 {
		return 1
	}
	return s
}

// SignAt returns the sign of p(t) with a residual-relative zero tolerance:
// −1, 0, or +1. t may be +Inf.
func (p Poly) SignAt(t float64) int {
	if math.IsInf(t, 1) {
		return p.SignAtInfinity()
	}
	v := p.Eval(t)
	if math.Abs(v) <= residualTol*p.scaleAt(t) {
		return 0
	}
	if v < 0 {
		return -1
	}
	return 1
}

// Roots returns all real roots of p on the interval [lo, hi], in increasing
// order, with multiple roots reported once. hi may be math.Inf(1), in which
// case the Cauchy root bound truncates the search. For the (numerically)
// zero polynomial it returns nil; callers that care about identical
// functions must test IsZero first, as the paper's algorithms do when they
// distinguish "f ≡ g on an interval" from crossings (§3).
func (p Poly) Roots(lo, hi float64) []float64 { return p.AppendRoots(nil, lo, hi) }

// AppendRoots appends the roots Roots(lo, hi) returns to dst and returns
// the extended slice. Below degree 3 the roots come from closed forms
// and nothing is allocated beyond dst's growth.
func (p Poly) AppendRoots(dst []float64, lo, hi float64) []float64 {
	q := p.normalize()
	if len(q) <= 1 {
		return dst
	}
	bound := q.CauchyRootBound() + 1
	effHi := hi
	if math.IsInf(hi, 1) || hi > bound {
		effHi = bound
	}
	if lo < -bound {
		lo = -bound
	}
	if lo > effHi {
		return dst
	}
	start := len(dst)
	dst = q.appendRootsBounded(dst, lo, effHi)
	sort.Float64s(dst[start:])
	return dedupe(dst, start, lo, effHi)
}

// RootsNonNeg returns the real roots of p on [0, ∞).
func (p Poly) RootsNonNeg() []float64 { return p.Roots(0, math.Inf(1)) }

// appendRootsBounded appends the roots on the finite interval [lo, hi],
// unsorted: degrees 1 and 2 by closed forms, higher degrees by
// rootsBounded.
func (p Poly) appendRootsBounded(dst []float64, lo, hi float64) []float64 {
	switch d := p.Degree(); {
	case d <= 0:
		return dst
	case d == 1:
		if r := -p.Coef(0) / p.Coef(1); r >= lo && r <= hi {
			dst = append(dst, r)
		}
		return dst
	case d == 2:
		return appendQuadraticRoots(dst, p.Coef(2), p.Coef(1), p.Coef(0), lo, hi)
	}
	return append(dst, p.rootsBounded(lo, hi)...)
}

// rootsBounded finds roots on the finite interval [lo, hi] by recursive
// critical-point isolation: the roots of p′ split [lo, hi] into intervals
// on which p is monotonic, and a sign change on a monotonic interval pins
// down exactly one root, found by bisection.
// It is called for degree 3 and up.
func (p Poly) rootsBounded(lo, hi float64) []float64 {
	crit := p.Derivative().appendRootsBounded(nil, lo, hi)
	sort.Float64s(crit)
	breaks := make([]float64, 0, len(crit)+2)
	breaks = append(breaks, lo)
	for _, c := range crit {
		if c > breaks[len(breaks)-1] && c < hi {
			breaks = append(breaks, c)
		}
	}
	breaks = append(breaks, hi)

	var roots []float64
	// Roots of even multiplicity sit exactly at critical points and do not
	// produce a sign change, so every break point is tested directly with a
	// Taylor-remainder near-root criterion.
	for _, c := range breaks {
		if p.nearRoot(c) {
			roots = append(roots, c)
		}
	}
	for i := 0; i+1 < len(breaks); i++ {
		a, b := breaks[i], breaks[i+1]
		sa, sb := p.SignAt(a), p.SignAt(b)
		if sa*sb < 0 {
			roots = append(roots, p.bisect(a, b, sa))
		}
	}
	return roots
}

// nearRoot reports whether p has a root within a small neighbourhood of c:
// it tests |p(c)| against the Taylor bound Σ_j |p^(j)(c)|·err^j / j!, which
// is the largest |p(c)| can be if p vanishes somewhere within err of c.
func (p Poly) nearRoot(c float64) bool {
	if p.SignAt(c) == 0 {
		return true
	}
	err := 1e-9 * (1 + math.Abs(c))
	bound := 0.0
	d := p.Derivative()
	fact := 1.0
	pow := err
	for j := 1; len(d) > 0; j++ {
		fact *= float64(j)
		bound += math.Abs(d.Eval(c)) * pow / fact
		pow *= err
		d = d.Derivative()
	}
	return math.Abs(p.Eval(c)) <= 2*bound
}

// bisect finds the unique root in (a, b) given p(a) has sign sa ≠ 0 and
// p(b) has the opposite sign.
func (p Poly) bisect(a, b float64, sa int) float64 {
	for i := 0; i < 200; i++ {
		m := 0.5 * (a + b)
		if m <= a || m >= b {
			break
		}
		v := p.Eval(m)
		switch {
		case v == 0:
			return m
		case (v < 0) == (sa < 0):
			a = m
		default:
			b = m
		}
		if b-a <= 1e-15*(1+math.Abs(a)+math.Abs(b)) {
			break
		}
	}
	return 0.5 * (a + b)
}

// appendQuadraticRoots appends the roots of a·t² + b·t + c = 0 on
// [lo, hi] to dst, by the numerically stable citardauq formulation.
func appendQuadraticRoots(dst []float64, a, b, c, lo, hi float64) []float64 {
	disc := b*b - 4*a*c
	scale := b*b + math.Abs(4*a*c)
	if scale == 0 {
		// b = 0 and a·c = 0 with a ≠ 0 (degree 2), so the only root is 0.
		if lo <= 0 && 0 <= hi {
			dst = append(dst, 0)
		}
		return dst
	}
	if disc < -residualTol*scale {
		return dst
	}
	var r1, r2 float64
	if disc <= residualTol*scale {
		r := -b / (2 * a)
		r1, r2 = r, r
	} else {
		s := math.Sqrt(disc)
		q := -0.5 * (b + math.Copysign(s, b))
		r1 = q / a
		r2 = c / q
		if r1 > r2 {
			r1, r2 = r2, r1
		}
	}
	if r1 >= lo && r1 <= hi {
		dst = append(dst, r1)
	}
	if r2 != r1 && r2 >= lo && r2 <= hi {
		dst = append(dst, r2)
	}
	return dst
}

// dedupe merges the root estimates in roots[start:] that coincide to
// within tolerance and clamps them to [lo, hi], in place; roots[:start]
// is left alone.
func dedupe(roots []float64, start int, lo, hi float64) []float64 {
	if len(roots) == start {
		return roots
	}
	out := roots[:start+1]
	for _, r := range roots[start+1:] {
		last := out[len(out)-1]
		if r-last > 1e-10*(1+math.Abs(r)) {
			out = append(out, r)
		}
	}
	for i := start; i < len(out); i++ {
		if out[i] < lo {
			out[i] = lo
		}
		if out[i] > hi {
			out[i] = hi
		}
	}
	return out
}

// IntersectionTimes returns the times t ∈ [lo, hi] at which p(t) = q(t).
// For distinct polynomials of degree ≤ s there are at most s such times
// (§2.5); identical polynomials yield nil and must be detected via Equal.
func (p Poly) IntersectionTimes(q Poly, lo, hi float64) []float64 {
	return p.Sub(q).Roots(lo, hi)
}
