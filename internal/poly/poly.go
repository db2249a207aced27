// Package poly implements dense univariate real polynomials of bounded
// degree, together with robust isolation of their real roots on [0, ∞).
//
// Polynomials are the motion primitives of the paper: every coordinate of a
// moving point is a polynomial of degree at most k in the time variable
// (§2.4, "k-motion"), and every algorithm in the paper ultimately reduces
// its geometric tests to evaluating and root-finding polynomials of bounded
// degree (so each such operation costs Θ(1) serial time, §6).
package poly

import (
	"fmt"
	"math"
	"strings"
)

// Poly is a real polynomial stored as a dense coefficient slice in
// ascending order of degree: P(t) = Coef[0] + Coef[1]·t + … + Coef[d]·t^d.
// The zero value (nil slice) is the zero polynomial.
type Poly []float64

// eps is the relative tolerance used when trimming negligible leading
// coefficients and when comparing evaluation results.
const eps = 1e-12

// New returns a polynomial with the given ascending coefficients,
// normalized so that the leading coefficient is nonzero.
func New(coefs ...float64) Poly { return NewTo(nil, coefs...) }

// NewTo is New computed into dst's storage when its capacity suffices
// and into a fresh slice otherwise.
func NewTo(dst Poly, coefs ...float64) Poly {
	p := grow(dst, len(coefs))
	copy(p, coefs)
	return p.normalize()
}

// Constant returns the constant polynomial c.
func Constant(c float64) Poly {
	if c == 0 {
		return nil
	}
	return Poly{c}
}

// X returns the identity polynomial t.
func X() Poly { return Poly{0, 1} }

// FromRoots returns the monic polynomial with the given real roots.
func FromRoots(roots ...float64) Poly {
	p := Poly{1}
	for _, r := range roots {
		p = p.Mul(Poly{-r, 1})
	}
	return p
}

// normalize trims trailing coefficients that are negligible relative to the
// largest coefficient magnitude, so Degree is meaningful.
func (p Poly) normalize() Poly {
	max := 0.0
	for _, c := range p {
		if a := math.Abs(c); a > max {
			max = a
		}
	}
	tol := max * eps
	n := len(p)
	for n > 0 && (p[n-1] == 0 || math.Abs(p[n-1]) < tol) {
		n--
	}
	if n == 0 {
		return nil
	}
	return p[:n]
}

// IsZero reports whether p is (numerically) the zero polynomial, i.e.
// whether normalize trims it to nothing. That is exactly when every
// coefficient is zero: normalize never trims a coefficient of largest
// magnitude, nor a NaN.
func (p Poly) IsZero() bool {
	for _, c := range p {
		if c != 0 {
			return false
		}
	}
	return true
}

// Degree returns the degree of p. The zero polynomial has degree -1.
func (p Poly) Degree() int { return len(p.normalize()) - 1 }

// Coef returns the coefficient of t^i (0 if i is out of range).
func (p Poly) Coef(i int) float64 {
	if i < 0 || i >= len(p) {
		return 0
	}
	return p[i]
}

// Lead returns the leading coefficient (0 for the zero polynomial).
func (p Poly) Lead() float64 {
	q := p.normalize()
	if len(q) == 0 {
		return 0
	}
	return q[len(q)-1]
}

// Eval evaluates p at t by Horner's rule. Evaluation at ±Inf returns the
// appropriately signed infinity (or 0 for the zero polynomial), matching
// the limit behaviour used by the paper's steady-state arguments (§5).
func (p Poly) Eval(t float64) float64 {
	if math.IsInf(t, 0) {
		q := p.normalize()
		switch {
		case len(q) == 0:
			return 0
		case len(q) == 1:
			return q[0]
		default:
			s := q[len(q)-1]
			if math.IsInf(t, -1) && (len(q)-1)%2 == 1 {
				s = -s
			}
			return math.Inf(sign(s))
		}
	}
	v := 0.0
	for i := len(p) - 1; i >= 0; i-- {
		v = v*t + p[i]
	}
	return v
}

func sign(x float64) int {
	if x < 0 {
		return -1
	}
	return 1
}

// cancelEps is the per-coefficient relative tolerance below which the
// result of an addition is treated as exact cancellation. Without it,
// algebraically identical products built in different association orders
// (e.g. the cross product of a vector with itself over rational
// functions) leave ~1e-16-relative rounding residue whose *sign* would be
// read as a geometric predicate.
const cancelEps = 1e-11

// Add returns p + q. Coefficients that cancel to within rounding noise
// of the operands are snapped to zero.
func (p Poly) Add(q Poly) Poly { return AddTo(nil, p, q) }

// AddTo returns p + q, computed into dst's storage when its capacity
// suffices and into a fresh slice otherwise. dst must not overlap p or q.
func AddTo(dst, p, q Poly) Poly {
	n := len(p)
	if len(q) > n {
		n = len(q)
	}
	r := grow(dst, n)
	for i := range r {
		a, b := p.Coef(i), q.Coef(i)
		v := a + b
		if math.Abs(v) <= cancelEps*(math.Abs(a)+math.Abs(b)) {
			v = 0
		}
		r[i] = v
	}
	return r.normalize()
}

// grow returns a zeroed polynomial of length n backed by dst when dst is
// non-nil with capacity n, and by a fresh slice otherwise (so a nil dst
// behaves exactly like make).
func grow(dst Poly, n int) Poly {
	if dst == nil || cap(dst) < n {
		return make(Poly, n)
	}
	r := dst[:n]
	clear(r)
	return r
}

// Sub returns p − q, with the same cancellation snapping as Add.
func (p Poly) Sub(q Poly) Poly { return SubTo(nil, p, q) }

// SubTo returns p − q, computed into dst's storage when its capacity
// suffices and into a fresh slice otherwise. dst must not overlap p or q.
func SubTo(dst, p, q Poly) Poly {
	n := len(p)
	if len(q) > n {
		n = len(q)
	}
	r := grow(dst, n)
	for i := range r {
		r[i] = subCoef(p.Coef(i), q.Coef(i))
	}
	return r.normalize()
}

// subCoef is one coefficient of p − q, snapped to zero when it cancels to
// within rounding noise of the operands.
func subCoef(a, b float64) float64 {
	v := a - b
	if math.Abs(v) <= cancelEps*(math.Abs(a)+math.Abs(b)) {
		return 0
	}
	return v
}

// SubIsZero reports whether p − q is the zero polynomial, exactly as
// p.Sub(q).IsZero() does, without building the difference: a normalized
// polynomial is zero exactly when every coefficient is (see IsZero).
func SubIsZero(p, q Poly) bool {
	n := max(len(p), len(q))
	for i := 0; i < n; i++ {
		if subCoef(p.Coef(i), q.Coef(i)) != 0 {
			return false
		}
	}
	return true
}

// Neg returns −p.
func (p Poly) Neg() Poly { return NegTo(nil, p) }

// NegTo returns −p, computed into dst's storage when its capacity
// suffices and into a fresh slice otherwise.
func NegTo(dst, p Poly) Poly {
	r := grow(dst, len(p))
	for i, c := range p {
		r[i] = -c
	}
	return r
}

// Scale returns c·p.
func (p Poly) Scale(c float64) Poly {
	r := make(Poly, len(p))
	for i, v := range p {
		r[i] = c * v
	}
	return r.normalize()
}

// Mul returns p·q.
func (p Poly) Mul(q Poly) Poly { return MulTo(nil, p, q) }

// MulTo returns p·q, computed into dst's storage when its capacity
// suffices and into a fresh slice otherwise. dst must not overlap p or q.
func MulTo(dst, p, q Poly) Poly {
	if len(p) == 0 || len(q) == 0 {
		return nil
	}
	r := grow(dst, len(p)+len(q)-1)
	for i, a := range p {
		if a == 0 {
			continue
		}
		for j, b := range q {
			r[i+j] += a * b
		}
	}
	return r.normalize()
}

// Sq returns p².
func (p Poly) Sq() Poly { return p.Mul(p) }

// Shift returns the polynomial q(t) = p(t + a).
func (p Poly) Shift(a float64) Poly {
	// Taylor shift by repeated Horner steps; degrees are bounded so the
	// O(d²) cost is Θ(1) per the paper's model.
	q := make(Poly, len(p))
	copy(q, p)
	n := len(q)
	for i := 0; i < n; i++ {
		for j := n - 2; j >= i; j-- {
			q[j] += a * q[j+1]
		}
	}
	return q.normalize()
}

// Derivative returns p′.
func (p Poly) Derivative() Poly {
	if len(p) <= 1 {
		return nil
	}
	r := make(Poly, len(p)-1)
	for i := 1; i < len(p); i++ {
		r[i-1] = float64(i) * p[i]
	}
	return r.normalize()
}

// SignAtInfinity returns the sign of p(t) as t → +∞: −1, 0, or +1.
// This is the comparison primitive behind the paper's steady-state
// reduction (Lemma 5.1).
func (p Poly) SignAtInfinity() int {
	q := p.normalize()
	if len(q) == 0 {
		return 0
	}
	if q[len(q)-1] > 0 {
		return 1
	}
	return -1
}

// CompareAtInfinity compares p and q as t → +∞ (Lemma 5.1): it returns
// −1 if eventually p < q, 0 if p ≡ q, +1 if eventually p > q. It runs in
// Θ(1) time for bounded degree.
func (p Poly) CompareAtInfinity(q Poly) int {
	return p.Sub(q).SignAtInfinity()
}

// Equal reports whether p and q are numerically identical.
func (p Poly) Equal(q Poly) bool { return SubIsZero(p, q) }

// CauchyRootBound returns an upper bound B such that every real root of p
// satisfies |r| ≤ B. Returns 0 for constants.
func (p Poly) CauchyRootBound() float64 {
	q := p.normalize()
	if len(q) <= 1 {
		return 0
	}
	lead := math.Abs(q[len(q)-1])
	max := 0.0
	for _, c := range q[:len(q)-1] {
		if a := math.Abs(c); a > max {
			max = a
		}
	}
	return 1 + max/lead
}

// String renders the polynomial in conventional notation, e.g.
// "3t^2 - t + 0.5".
func (p Poly) String() string {
	q := p.normalize()
	if len(q) == 0 {
		return "0"
	}
	var b strings.Builder
	first := true
	for i := len(q) - 1; i >= 0; i-- {
		c := q[i]
		if c == 0 {
			continue
		}
		switch {
		case first && c < 0:
			b.WriteString("-")
		case !first && c < 0:
			b.WriteString(" - ")
		case !first:
			b.WriteString(" + ")
		}
		a := math.Abs(c)
		if a != 1 || i == 0 {
			fmt.Fprintf(&b, "%g", a)
		}
		switch {
		case i == 1:
			b.WriteString("t")
		case i > 1:
			fmt.Fprintf(&b, "t^%d", i)
		}
		first = false
	}
	if first {
		return "0"
	}
	return b.String()
}
