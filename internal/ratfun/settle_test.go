package ratfun

import (
	"math"
	"math/rand"
	"testing"

	"dyncg/internal/poly"
)

// TestSettledOpsMatchHeap: the exported Add, Sub, Mul and Div, which run
// in a stack arena and copy the result out, give the nil-arena heap path's
// coefficients bit for bit, keep a nil Num or Den nil (and an empty one
// empty), and return storage no operand shares — also when the operands
// overflow the 256-coefficient arena.
func TestSettledOpsMatchHeap(t *testing.T) {
	bitsEqual := func(a, b poly.Poly) bool {
		if (a == nil) != (b == nil) || len(a) != len(b) {
			return false
		}
		for i := range a {
			if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
				return false
			}
		}
		return true
	}
	bigPoly := func(r *rand.Rand) poly.Poly {
		c := make([]float64, 65+r.Intn(16)) // degree ≥ 64
		for i := range c {
			c[i] = float64(r.Intn(9) - 4)
		}
		c[len(c)-1] = 1
		return c
	}
	operand := func(r *rand.Rand, trial int) RatFun {
		a := randRat(r)
		switch r.Intn(6) {
		case 0:
			a.Num = nil
		case 1:
			a.Den = nil
		case 2:
			a.Den = poly.New(float64(1+r.Intn(3)), -1) // eventually negative
		case 3:
			a.Num, a.Den = nil, poly.New(2, -1) // nil Num under a sign flip
		}
		if trial%10 == 9 {
			a.Num = bigPoly(r)
			if r.Intn(2) == 0 {
				a.Den = bigPoly(r)
			}
		}
		return a
	}
	ops := []struct {
		name      string
		got, want func(a, b RatFun) RatFun
	}{
		{"Add", RatFun.Add, func(a, b RatFun) RatFun { return add(nil, a, b) }},
		{"Sub", RatFun.Sub, func(a, b RatFun) RatFun { return sub(nil, a, b) }},
		{"Mul", RatFun.Mul, func(a, b RatFun) RatFun { return mul(nil, a, b) }},
		{"Div", RatFun.Div, func(a, b RatFun) RatFun { return div(nil, a, b) }},
	}
	r := rand.New(rand.NewSource(43))
	for trial := 0; trial < 600; trial++ {
		a, b := operand(r, trial), operand(r, trial+r.Intn(2))
		for _, op := range ops {
			if op.name == "Div" && b.Num.IsZero() {
				continue
			}
			got, want := op.got(a, b), op.want(a, b)
			if !bitsEqual(got.Num, want.Num) || !bitsEqual(got.Den, want.Den) {
				t.Fatalf("trial %d: %s(%v, %v) = {%#v, %#v}, heap path {%#v, %#v}",
					trial, op.name, a, b, got.Num, got.Den, want.Num, want.Den)
			}
			// Overwrite the result: no operand, and not the shared {1},
			// may change.
			before := []RatFun{a, b, {Num: one}}
			snap := make([][]uint64, 0, 6)
			for _, x := range before {
				for _, p := range []poly.Poly{x.Num, x.Den} {
					var s []uint64
					for _, c := range p {
						s = append(s, math.Float64bits(c))
					}
					snap = append(snap, s)
				}
			}
			for i := range got.Num {
				got.Num[i] = math.NaN()
			}
			for i := range got.Den {
				got.Den[i] = math.NaN()
			}
			k := 0
			for _, x := range before {
				for _, p := range []poly.Poly{x.Num, x.Den} {
					for i, c := range p {
						if math.Float64bits(c) != snap[k][i] {
							t.Fatalf("trial %d: %s result aliases an operand", trial, op.name)
						}
					}
					k++
				}
			}
		}
	}
}
