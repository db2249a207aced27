package ratfun

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"dyncg/internal/poly"
)

func randRat(r *rand.Rand) RatFun {
	randPoly := func(maxDeg int) poly.Poly {
		d := r.Intn(maxDeg + 1)
		c := make([]float64, d+1)
		for i := range c {
			c[i] = float64(r.Intn(9) - 4)
		}
		return poly.New(c...)
	}
	num := randPoly(3)
	den := randPoly(2)
	for den.IsZero() {
		den = randPoly(2)
	}
	return RatFun{Num: num, Den: den}
}

func TestZeroValueIsZero(t *testing.T) {
	var z RatFun
	if z.Sign() != 0 {
		t.Fatalf("zero value sign = %d", z.Sign())
	}
	one := FromFloat(1)
	if got := z.Add(one); got.Cmp(one) != 0 {
		t.Fatalf("0 + 1 = %v", got)
	}
	if got := one.Mul(z); got.Sign() != 0 {
		t.Fatalf("1 * 0 = %v", got)
	}
}

func TestOrderingAtInfinity(t *testing.T) {
	tt := FromPoly(poly.X())
	big := FromFloat(1e9)
	if tt.Cmp(big) != 1 {
		t.Error("t should eventually exceed any constant")
	}
	// t/(t+1) → 1 < 2
	ratio := RatFun{Num: poly.X(), Den: poly.New(1, 1)}
	if ratio.Cmp(FromFloat(2)) != -1 {
		t.Error("t/(t+1) should be < 2 at infinity")
	}
	// t²/(t+1) → ∞ > 7
	super := RatFun{Num: poly.X().Mul(poly.X()), Den: poly.New(1, 1)}
	if super.Cmp(FromFloat(7)) != 1 {
		t.Error("t²/(t+1) should exceed 7 at infinity")
	}
}

func TestNegativeDenominatorNormalization(t *testing.T) {
	// 1/(−t) → 0⁻, so it is negative at infinity.
	a := RatFun{Num: poly.Constant(1), Den: poly.New(0, -1)}
	if a.Sign() != -1 {
		t.Fatalf("1/(-t) sign = %d, want -1", a.Sign())
	}
}

// Property: field axioms hold (verified through Cmp, the only observable).
func TestFieldAxiomsProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b, c := randRat(r), randRat(r), randRat(r)
		// (a+b)+c == a+(b+c)
		if a.Add(b).Add(c).Cmp(a.Add(b.Add(c))) != 0 {
			return false
		}
		// a*(b+c) == a*b + a*c
		if a.Mul(b.Add(c)).Cmp(a.Mul(b).Add(a.Mul(c))) != 0 {
			return false
		}
		// a - a == 0
		if a.Sub(a).Sign() != 0 {
			return false
		}
		// (a/b)*b == a when b != 0
		if b.Sign() != 0 && a.Div(b).Mul(b).Cmp(a) != 0 {
			return false
		}
		// Half
		if a.Half().Add(a.Half()).Cmp(a) != 0 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: the ordering is total and consistent with evaluation at a
// sufficiently large finite time.
func TestOrderMatchesLargeTimeProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b := randRat(r), randRat(r)
		c := a.Cmp(b)
		if c == 0 {
			return b.Cmp(a) == 0
		}
		d := normalize(nil, a.Sub(b))
		T := d.Num.CauchyRootBound() + d.Den.CauchyRootBound() + 10
		diff := a.Eval(T) - b.Eval(T)
		return (diff < 0) == (c < 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestFloatRepresentative(t *testing.T) {
	// (2t+1)/(t+3) → 2
	a := RatFun{Num: poly.New(1, 2), Den: poly.New(3, 1)}
	if got := a.Float(); math.Abs(got-2) > 1e-12 {
		t.Fatalf("Float = %v, want 2", got)
	}
	if got := FromFloat(-3.5).Float(); got != -3.5 {
		t.Fatalf("Float const = %v", got)
	}
}

func TestF64Instance(t *testing.T) {
	a, b := F64(3), F64(-2)
	if a.Add(b) != 1 || a.Mul(b) != -6 || a.Sub(b) != 5 || a.Div(b) != -1.5 {
		t.Fatal("F64 arithmetic broken")
	}
	if a.Cmp(b) != 1 || b.Sign() != -1 || a.Half() != 1.5 || b.Neg() != 2 {
		t.Fatal("F64 ordering broken")
	}
}

func TestDivByZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	FromFloat(1).Div(RatFun{})
}
