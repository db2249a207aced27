package ratfun_test

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"dyncg/internal/geom"
	"dyncg/internal/poly"
	"dyncg/internal/ratfun"
)

// The sign predicates (CrossSign, DotSign, OrientSign, Cmp) must return
// exactly the Sign of the allocating chain they replace: geom.Cross,
// geom.Dot, geom.Cross of differences, and Sub. These tests hold them to
// that, and hold every operation to never writing into an operand.

type pt = geom.Point[ratfun.RatFun]

// chainSigns returns the oracle signs for the six coordinates
// (ax, ay, bx, by, cx, cy): cross a×b, dot a·b, orientation of (a, b, c)
// and a.X compared with b.X, each through the allocating chain.
func chainSigns(c [6]ratfun.RatFun) [4]int {
	a, b, q := pt{X: c[0], Y: c[1]}, pt{X: c[2], Y: c[3]}, pt{X: c[4], Y: c[5]}
	return [4]int{
		geom.Cross(a, b).Sign(),
		geom.Dot(a, b).Sign(),
		geom.Cross(b.Sub(a), q.Sub(a)).Sign(),
		c[0].Sub(c[2]).Sign(),
	}
}

// kernelSigns is chainSigns through the sign predicates.
func kernelSigns(c [6]ratfun.RatFun) [4]int {
	return [4]int{
		c[0].CrossSign(c[1], c[2], c[3]),
		c[0].DotSign(c[1], c[2], c[3]),
		c[0].OrientSign(c[1], c[2], c[3], c[4], c[5]),
		c[0].Cmp(c[2]),
	}
}

// Denominator kinds of an encoded coordinate.
const (
	denNil   = iota // zero-value Den, read as 1
	denConst        // one coefficient
	denPoly         // degree 1–4
	denNeg          // degree 1–4 with a negative leading coefficient
)

// coord is the decoded form of one fuzzed coordinate: a numerator of
// degree 0–4 over a denominator of one of the kinds above.
type coord struct {
	num  []float64
	kind int
	den  []float64
}

func (c coord) rat() ratfun.RatFun {
	r := ratfun.RatFun{Num: poly.New(c.num...)}
	switch c.kind {
	case denConst, denPoly:
		r.Den = poly.New(c.den...)
	case denNeg:
		d := append([]float64(nil), c.den...)
		d[len(d)-1] = -math.Abs(d[len(d)-1])
		r.Den = poly.New(d...)
	}
	return r
}

// encode writes six coordinates in the byte layout decode reads: per
// coordinate a header byte (numerator degree, denominator kind and
// degree) and then the coefficients as little-endian float64 bits.
func encode(cs [6]coord) []byte {
	var out []byte
	f := func(x float64) { out = binary.LittleEndian.AppendUint64(out, math.Float64bits(x)) }
	for _, c := range cs {
		dd := max(len(c.den)-1, 1)
		out = append(out, byte(len(c.num)-1)|byte(c.kind)<<3|byte(dd-1)<<5)
		for _, x := range c.num {
			f(x)
		}
		if c.kind != denNil {
			for _, x := range c.den {
				f(x)
			}
		}
	}
	return out
}

func decode(data []byte) [6]ratfun.RatFun {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	nextF := func() float64 {
		var b [8]byte
		for i := range b {
			b[i] = next()
		}
		return math.Float64frombits(binary.LittleEndian.Uint64(b[:]))
	}
	var out [6]ratfun.RatFun
	for i := range out {
		h := next()
		c := coord{num: make([]float64, int(h&7)%5+1), kind: int(h>>3) & 3}
		for j := range c.num {
			c.num[j] = nextF()
		}
		switch c.kind {
		case denConst:
			c.den = []float64{nextF()}
		case denPoly, denNeg:
			c.den = make([]float64, int(h>>5)%4+2)
			for j := range c.den {
				c.den[j] = nextF()
			}
		}
		out[i] = c.rat()
	}
	return out
}

// fuzzSeeds are the committed shapes: near-cancellations that only the
// cancelEps snap turns into an exact 0, and degree-4 rational
// coordinates large enough to overflow the predicates' arena.
func fuzzSeeds() map[string][6]coord {
	// Quadratic over quadratic: the three-term convolutions of p·q and
	// q·p sum in different orders, so a·a and a·a⊥ leave ~1e-16
	// residue that only the cancelEps snap turns into 0.
	x := coord{num: []float64{-2.2, 2.7, 5.3}, kind: denPoly, den: []float64{-2.3, 8.5, 1}}
	y := coord{num: []float64{9.9, 4.5, 7.3}, kind: denPoly, den: []float64{-1.7, -6.2, 1}}
	yn := coord{num: y.num, kind: denNeg, den: y.den}
	neg := func(c coord) coord {
		c.num = []float64{-c.num[0], -c.num[1], -c.num[2]}
		return c
	}
	scaled := func(c coord, s float64) coord {
		c.num = []float64{c.num[0] * s, c.num[1] * s, c.num[2] * s}
		c.den = []float64{c.den[0] * s, c.den[1] * s, c.den[2] * s}
		return c
	}
	deg4 := func(s float64) coord {
		return coord{
			num:  []float64{s, -1.1 * s, 0.37, 2.9 * s, -0.61},
			kind: denPoly,
			den:  []float64{1.3, 0.2 * s, -0.7, 0.45, 1.9},
		}
	}
	p := func(cs ...float64) coord { return coord{num: cs, kind: denNil} }
	c3 := func(cs ...float64) coord { return coord{num: cs, kind: denConst, den: []float64{3}} }
	negLin := coord{num: []float64{2, -1}, kind: denNeg, den: []float64{3, 1}}
	return map[string][6]coord{
		"self_cross":        {x, y, x, y, x, y},
		"self_cross_negden": {x, yn, x, yn, y, x},
		"perpendicular_dot": {x, y, neg(y), x, neg(x), neg(y)},
		// x and 6.7x/6.7 are one function; b = c.
		"collinear_scaled": {x, y, scaled(x, 6.7), y, scaled(x, 6.7), y},
		"polynomial_mixed": {p(1, 2), c3(-3, 0, 1), p(0.5), negLin, p(0), c3(4, 4, 4, 4, 4)},
		"arena_overflow":   {deg4(1), deg4(-2), deg4(0.5), deg4(3), deg4(-1.5), deg4(7)},
	}
}

// FuzzSteadyPredicates is the differential check of the sign
// predicates against the allocating chain, over coordinates of degree
// 0–4 with nil, constant, polynomial and negative denominators.
func FuzzSteadyPredicates(f *testing.F) {
	for _, s := range fuzzSeeds() {
		f.Add(encode(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		c := decode(data)
		if got, want := kernelSigns(c), chainSigns(c); got != want {
			t.Fatalf("kernel signs %v, chain %v for %v", got, want, c)
		}
	})
}

// TestSteadyPredicateSeeds pins that the cancellation seeds cancel, so
// the fuzz target's seeds keep exercising the cancelEps snap.
func TestSteadyPredicateSeeds(t *testing.T) {
	for name, s := range fuzzSeeds() {
		var c [6]ratfun.RatFun
		for i, x := range s {
			c[i] = x.rat()
		}
		if d := decode(encode(s)); fmt.Sprint(d) != fmt.Sprint(c) {
			t.Fatalf("%s: encoding round trip gives %v, want %v", name, d, c)
		}
		got := kernelSigns(c)
		if want := chainSigns(c); got != want {
			t.Errorf("%s: kernel signs %v, chain %v", name, got, want)
		}
		switch name {
		case "self_cross", "self_cross_negden":
			if got[0] != 0 {
				t.Errorf("%s: a × a sign = %d, want 0", name, got[0])
			}
		case "perpendicular_dot":
			if got[1] != 0 {
				t.Errorf("%s: a · a⊥ sign = %d, want 0", name, got[1])
			}
		case "collinear_scaled":
			if got[3] != 0 {
				t.Errorf("%s: x vs 6.7x/6.7 = %d, want 0", name, got[3])
			}
		}
	}
}

func randCoords(r *rand.Rand) [6]ratfun.RatFun {
	var c [6]ratfun.RatFun
	for i := range c {
		num := make([]float64, r.Intn(5)+1)
		for j := range num {
			num[j] = float64(r.Intn(9) - 4)
		}
		c[i] = ratfun.FromPoly(poly.New(num...))
		if r.Intn(3) == 0 {
			c[i].Den = nil
		}
	}
	return c
}

// TestSteadyPredicatesAllocFree: on polynomial coordinates of degree
// ≤ 4 (the motion systems' shape) the four sign paths run in the
// arena and allocate nothing.
func TestSteadyPredicatesAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates")
	}
	r := rand.New(rand.NewSource(17))
	for trial := 0; trial < 20; trial++ {
		c := randCoords(r)
		for i, f := range []func(){
			func() { c[0].CrossSign(c[1], c[2], c[3]) },
			func() { c[0].DotSign(c[1], c[2], c[3]) },
			func() { c[0].OrientSign(c[1], c[2], c[3], c[4], c[5]) },
			func() { c[0].Cmp(c[2]) },
		} {
			if a := testing.AllocsPerRun(20, f); a != 0 {
				t.Fatalf("trial %d predicate %d: %v allocs/op on %v", trial, i, a, c)
			}
		}
	}
}

// TestOpsDoNotMutateOperands: no exported Poly or RatFun operation, and
// no sign predicate, writes into an operand's coefficients — the
// invariant that lets RatFun share one {1} denominator.
func TestOpsDoNotMutateOperands(t *testing.T) {
	bits := func(ps ...poly.Poly) [][]uint64 {
		out := make([][]uint64, len(ps))
		for i, p := range ps {
			for _, c := range p {
				out[i] = append(out[i], math.Float64bits(c))
			}
		}
		return out
	}
	same := func(a, b [][]uint64) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if len(a[i]) != len(b[i]) {
				return false
			}
			for j := range a[i] {
				if a[i][j] != b[i][j] {
					return false
				}
			}
		}
		return true
	}
	// The shared denominator, as handed out by Neg of a nil-Den value.
	shared := ratfun.RatFun{Num: poly.Poly{2}}.Neg().Den
	if len(shared) != 1 || shared[0] != 1 {
		t.Fatalf("nil-Den denominator = %v, want {1}", shared)
	}

	r := rand.New(rand.NewSource(5))
	for trial := 0; trial < 50; trial++ {
		p := poly.New(float64(r.Intn(9)-4), float64(r.Intn(9)-4), float64(r.Intn(9)-4), 1)
		q := poly.New(float64(r.Intn(9)-4), 1)
		before := bits(p, q)
		polyOps := map[string]func(){
			"Add":               func() { p.Add(q) },
			"AddTo":             func() { poly.AddTo(make(poly.Poly, 0, 8), p, q) },
			"Sub":               func() { p.Sub(q) },
			"Neg":               func() { p.Neg() },
			"NegTo":             func() { poly.NegTo(make(poly.Poly, 0, 8), p) },
			"Scale":             func() { p.Scale(-2) },
			"Mul":               func() { p.Mul(q) },
			"MulTo":             func() { poly.MulTo(make(poly.Poly, 0, 8), p, q) },
			"Sq":                func() { p.Sq() },
			"Shift":             func() { p.Shift(1.5) },
			"Derivative":        func() { p.Derivative() },
			"Div":               func() { p.Div(q) },
			"Eval":              func() { p.Eval(2); p.Eval(math.Inf(-1)) },
			"SignAt":            func() { p.SignAt(0.5) },
			"Roots":             func() { p.Roots(-10, 10); p.RootsNonNeg() },
			"IntersectionTimes": func() { p.IntersectionTimes(q, -10, 10) },
			"SturmChain":        func() { p.SturmChain(); p.CountRootsSturm(-10, 10) },
			"CompareAtInfinity": func() { p.CompareAtInfinity(q); p.Equal(q) },
			"Inspect":           func() { _ = p.String(); p.Degree(); p.Lead(); p.CauchyRootBound(); p.IsZero() },
		}
		for name, op := range polyOps {
			op()
			if !same(before, bits(p, q)) {
				t.Fatalf("Poly.%s wrote into an operand: %v → %v, %v", name, before, p, q)
			}
		}

		c := randCoords(r)
		c[1].Den = poly.New(float64(r.Intn(4)+1), -1) // eventually negative
		rats := func() []poly.Poly {
			var ps []poly.Poly
			for _, x := range c {
				ps = append(ps, x.Num, x.Den)
			}
			return append(ps, shared)
		}
		before = bits(rats()...)
		ratOps := map[string]func(){
			"Add":        func() { c[0].Add(c[1]); c[1].Add(c[2]) },
			"Sub":        func() { c[0].Sub(c[1]); c[1].Sub(c[2]) },
			"Mul":        func() { c[0].Mul(c[1]); c[2].Mul(c[3]) },
			"Div":        func() { c[0].Div(ratfun.FromFloat(3)); c[1].Div(ratfun.FromPoly(poly.New(1, 1))) },
			"Neg":        func() { c[0].Neg(); c[1].Neg() },
			"Half":       func() { c[0].Half(); c[1].Half() },
			"Sign":       func() { c[0].Sign(); c[1].Sign() },
			"Cmp":        func() { c[0].Cmp(c[1]); c[2].Cmp(c[3]) },
			"Float":      func() { c[0].Float(); c[1].Float(); c[0].Eval(2); _ = c[1].String() },
			"CrossSign":  func() { c[0].CrossSign(c[1], c[2], c[3]) },
			"DotSign":    func() { c[1].DotSign(c[0], c[3], c[2]) },
			"OrientSign": func() { c[0].OrientSign(c[1], c[2], c[3], c[4], c[5]) },
		}
		for name, op := range ratOps {
			op()
			if !same(before, bits(rats()...)) {
				t.Fatalf("RatFun.%s wrote into an operand", name)
			}
		}
	}
}
