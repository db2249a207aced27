// Package ratfun implements the ordered field of real rational functions,
// ordered by their behaviour as t → +∞.
//
// Lemma 5.1 of the paper states that the steady-state minimum of two
// bounded-degree polynomials can be determined in Θ(1) serial time; this
// package is the systematic version of that observation. Every steady-state
// algorithm in §5 (nearest neighbour, closest pair, hull, diameter,
// smallest enclosing rectangle) is written once over the generic ordered
// field Real and instantiated either with plain float64 (static systems,
// k = 0) or with RatFun (k-motion systems evaluated "at infinity"), which
// makes every geometric predicate exact in the steady state.
//
// The steady-state algorithms only ever need the sign of a cross product,
// dot product, orientation or difference, so Real carries those signs as
// predicates (CrossSign, DotSign, OrientSign, Cmp). The RatFun versions
// build their intermediate polynomials in a fixed-size arena on the
// caller's stack and fall back to the heap when it is full. The exported
// Add, Sub, Mul and Div run the same code in an arena of their own and
// then copy the result's numerator and denominator out into one heap
// block, so every value and every sign comes from the same float
// operations in the same order, and a result never aliases an operand.
// Passing no arena computes the same coefficients on the heap; that path
// survives as the test oracle. Sharing works because no operation ever
// writes into an operand: results are new storage, or alias an operand
// unchanged (Neg keeps the operand's denominator and Half its numerator,
// and the shared {1} that stands for a nil denominator is one such
// alias).
package ratfun

import (
	"fmt"

	"dyncg/internal/poly"
)

// Real is the ordered-field interface shared by F64 and RatFun. All
// geometric predicates in internal/geom and internal/pgeom are generic
// over it, mirroring the paper's device of reusing static algorithms for
// steady-state inputs (Propositions 5.2–5.4, Theorem 5.8).
//
// The zero value of an implementing type must be the field's zero.
type Real[T any] interface {
	Add(T) T
	Sub(T) T
	Mul(T) T
	Div(T) T // division by zero panics, as in float64 integer-like use
	Neg() T
	Half() T   // exact division by two (midpoints for envelope probes)
	Sign() int // -1, 0, +1
	Cmp(T) int
	Float() float64 // representative numeric value (for display/output)

	// The sign predicates take the receiver as the first x coordinate.
	// Each equals Sign of the matching geom expression, evaluated once
	// without building its intermediate values.
	CrossSign(ay, bx, by T) int          // (a, ay) × (bx, by)
	DotSign(ay, bx, by T) int            // (a, ay) · (bx, by)
	OrientSign(ay, bx, by, cx, cy T) int // (b − a) × (c − a)
}

// F64 is the float64 instance of Real, used for static (k = 0) systems.
type F64 float64

// Add returns a + b.
func (a F64) Add(b F64) F64 { return a + b }

// Sub returns a − b.
func (a F64) Sub(b F64) F64 { return a - b }

// Mul returns a · b.
func (a F64) Mul(b F64) F64 { return a * b }

// Div returns a / b.
func (a F64) Div(b F64) F64 {
	if b == 0 {
		panic("ratfun: division by zero")
	}
	return a / b
}

// Neg returns −a.
func (a F64) Neg() F64 { return -a }

// Half returns a / 2.
func (a F64) Half() F64 { return a / 2 }

// Sign returns the sign of a.
func (a F64) Sign() int {
	switch {
	case a < 0:
		return -1
	case a > 0:
		return 1
	}
	return 0
}

// Cmp compares a and b.
func (a F64) Cmp(b F64) int { return (a - b).Sign() }

// Float returns a as a float64.
func (a F64) Float() float64 { return float64(a) }

// CrossSign returns the sign of a·by − ay·bx.
func (a F64) CrossSign(ay, bx, by F64) int { return a.Mul(by).Sub(ay.Mul(bx)).Sign() }

// DotSign returns the sign of a·bx + ay·by.
func (a F64) DotSign(ay, bx, by F64) int { return a.Mul(bx).Add(ay.Mul(by)).Sign() }

// OrientSign returns the sign of (bx − a)·(cy − ay) − (by − ay)·(cx − a).
func (a F64) OrientSign(ay, bx, by, cx, cy F64) int {
	return bx.Sub(a).CrossSign(by.Sub(ay), cx.Sub(a), cy.Sub(ay))
}

var _ Real[F64] = F64(0)

// RatFun is a rational function Num/Den of the time variable, ordered by
// its limit behaviour as t → +∞. The zero value represents 0 (Den nil is
// read as the constant 1).
type RatFun struct {
	Num poly.Poly
	Den poly.Poly
}

// FromPoly returns p viewed as a rational function.
func FromPoly(p poly.Poly) RatFun { return RatFun{Num: p, Den: poly.Constant(1)} }

// FromFloat returns the constant rational function c.
func FromFloat(c float64) RatFun { return FromPoly(poly.Constant(c)) }

// one is the shared denominator of every RatFun whose Den is zero. It is
// safe to share because no operation writes into an operand.
var one = poly.Poly{1}

// den returns the denominator, treating the zero value as 1.
func (a RatFun) den() poly.Poly {
	if a.Den.IsZero() {
		return one
	}
	return a.Den
}

// arenaLen is the coefficient capacity of one predicate's arena: enough
// for the cross, dot and orientation signs of degree-4 coordinates over
// the constant denominators every motion system starts from.
const arenaLen = 256

// arena is a bump allocator of coefficient storage for the
// intermediate values of one sign predicate or exported operation. It
// lives on the caller's stack; when it is full, or when it is nil (the
// test oracle), the polynomial operations allocate on the heap instead,
// which gives the same coefficients.
type arena struct {
	buf [arenaLen]float64
	off int
}

// take returns an empty slice with capacity n from the arena, or nil
// when s is nil or has fewer than n coefficients left.
func (s *arena) take(n int) poly.Poly {
	n = max(n, 0)
	if s == nil || n > len(s.buf)-s.off {
		return nil
	}
	p := s.buf[s.off : s.off : s.off+n]
	s.off += n
	return p
}

func (s *arena) add(p, q poly.Poly) poly.Poly {
	return poly.AddTo(s.take(max(len(p), len(q))), p, q)
}

func (s *arena) mul(p, q poly.Poly) poly.Poly {
	return poly.MulTo(s.take(len(p)+len(q)-1), p, q)
}

func (s *arena) neg(p poly.Poly) poly.Poly { return poly.NegTo(s.take(len(p)), p) }

// normalize flips signs so the denominator is eventually positive, which
// makes Sign a plain numerator test.
func normalize(s *arena, a RatFun) RatFun {
	d := a.den()
	if d.SignAtInfinity() < 0 {
		return RatFun{Num: s.neg(a.Num), Den: s.neg(d)}
	}
	return RatFun{Num: a.Num, Den: d}
}

func add(s *arena, a, b RatFun) RatFun {
	ad, bd := a.den(), b.den()
	return normalize(s, RatFun{
		Num: s.add(s.mul(a.Num, bd), s.mul(b.Num, ad)),
		Den: s.mul(ad, bd),
	})
}

func sub(s *arena, a, b RatFun) RatFun { return add(s, a, neg(s, b)) }

func mul(s *arena, a, b RatFun) RatFun {
	return normalize(s, RatFun{Num: s.mul(a.Num, b.Num), Den: s.mul(a.den(), b.den())})
}

func neg(s *arena, a RatFun) RatFun { return RatFun{Num: s.neg(a.Num), Den: a.den()} }

func sign(s *arena, a RatFun) int { return normalize(s, a).Num.SignAtInfinity() }

func div(s *arena, a, b RatFun) RatFun {
	return normalize(s, RatFun{Num: s.mul(a.Num, b.den()), Den: s.mul(a.den(), b.Num)})
}

// settle copies a result built in an arena out into one heap block, Num
// first, so that it outlives the arena. A nil Num or Den stays nil, and
// Num's capacity ends at its length, so appending to it never reaches
// Den.
func settle(r RatFun) RatFun {
	block := make([]float64, len(r.Num)+len(r.Den))
	n := copy(block, r.Num)
	copy(block[n:], r.Den)
	var out RatFun
	if r.Num != nil {
		out.Num = block[:n:n]
	}
	if r.Den != nil {
		out.Den = block[n:]
	}
	return out
}

// Add returns a + b.
func (a RatFun) Add(b RatFun) RatFun {
	var s arena
	return settle(add(&s, a, b))
}

// Sub returns a − b.
func (a RatFun) Sub(b RatFun) RatFun {
	var s arena
	return settle(sub(&s, a, b))
}

// Mul returns a · b.
func (a RatFun) Mul(b RatFun) RatFun {
	var s arena
	return settle(mul(&s, a, b))
}

// Div returns a / b. It panics if b is identically zero.
func (a RatFun) Div(b RatFun) RatFun {
	if b.Num.IsZero() {
		panic("ratfun: division by zero rational function")
	}
	var s arena
	return settle(div(&s, a, b))
}

// Neg returns −a.
func (a RatFun) Neg() RatFun { return neg(nil, a) }

// Half returns a / 2.
func (a RatFun) Half() RatFun { return RatFun{Num: a.Num, Den: a.den().Scale(2)} }

// Sign returns the sign of a(t) as t → +∞ (Lemma 5.1).
func (a RatFun) Sign() int { return sign(nil, a) }

// Cmp compares a and b as t → +∞.
func (a RatFun) Cmp(b RatFun) int {
	var s arena
	return sign(&s, sub(&s, a, b))
}

// CrossSign returns the sign of a·by − ay·bx, the cross product of the
// vectors (a, ay) and (bx, by), as t → +∞.
func (a RatFun) CrossSign(ay, bx, by RatFun) int {
	var s arena
	return sign(&s, cross(&s, a, ay, bx, by))
}

// DotSign returns the sign of a·bx + ay·by, the dot product of the
// vectors (a, ay) and (bx, by), as t → +∞.
func (a RatFun) DotSign(ay, bx, by RatFun) int {
	var s arena
	return sign(&s, add(&s, mul(&s, a, bx), mul(&s, ay, by)))
}

// OrientSign returns the orientation of the points (a, ay), (bx, by),
// (cx, cy) as t → +∞: the sign of (b − a) × (c − a).
func (a RatFun) OrientSign(ay, bx, by, cx, cy RatFun) int {
	var s arena
	return sign(&s, cross(&s, sub(&s, bx, a), sub(&s, by, ay), sub(&s, cx, a), sub(&s, cy, ay)))
}

func cross(s *arena, ax, ay, bx, by RatFun) RatFun {
	return sub(s, mul(s, ax, by), mul(s, ay, bx))
}

// Float returns a representative value: the limit of a(t) as t → +∞ when
// finite, otherwise an evaluation at a large time past all critical roots.
func (a RatFun) Float() float64 {
	n := normalize(nil, a)
	dn, dd := n.Num.Degree(), n.Den.Degree()
	switch {
	case dn < 0:
		return 0
	case dn < dd:
		return 0
	case dn == dd:
		return n.Num.Lead() / n.Den.Lead()
	default:
		t := n.Num.CauchyRootBound() + n.Den.CauchyRootBound() + 10
		return n.Num.Eval(t) / n.Den.Eval(t)
	}
}

// Eval evaluates the rational function at a finite time.
func (a RatFun) Eval(t float64) float64 { return a.Num.Eval(t) / a.den().Eval(t) }

// String renders the rational function.
func (a RatFun) String() string {
	n := normalize(nil, a)
	if n.Den.Degree() == 0 && n.Den.Lead() == 1 {
		return n.Num.String()
	}
	return fmt.Sprintf("(%s)/(%s)", n.Num, n.Den)
}

var _ Real[RatFun] = RatFun{}
