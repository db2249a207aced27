package curve

import (
	"math"
	"math/rand"
	"testing"

	"dyncg/internal/poly"
)

func TestPolyCurveEvalAndIntersections(t *testing.T) {
	f := NewPoly(poly.New(0, 0, 1)) // t²
	g := NewPoly(poly.New(2, 1))    // t+2
	if f.Eval(3) != 9 || g.Eval(3) != 5 {
		t.Fatal("Eval broken")
	}
	times, ident := f.Intersections(g, 0, math.Inf(1))
	if ident || len(times) != 1 || math.Abs(times[0]-2) > 1e-9 {
		t.Fatalf("Intersections = %v, %v", times, ident)
	}
	_, ident = f.Intersections(f, 0, math.Inf(1))
	if !ident {
		t.Fatal("identical curves not detected")
	}
}

func TestConstCurve(t *testing.T) {
	c := Const(3)
	if c.Eval(0) != 3 || c.Eval(100) != 3 {
		t.Fatal("Const broken")
	}
}

func TestAngleEvalQuadrants(t *testing.T) {
	cases := []struct {
		dx, dy poly.Poly
		t      float64
		want   float64
	}{
		{poly.Constant(1), poly.Constant(0), 0, 0},
		{poly.Constant(0), poly.Constant(1), 0, math.Pi / 2},
		{poly.Constant(-1), poly.Constant(0), 0, math.Pi}, // convention: (−π, π]
		{poly.Constant(0), poly.Constant(-1), 0, -math.Pi / 2},
		{poly.Constant(1), poly.Constant(1), 0, math.Pi / 4},
	}
	for i, c := range cases {
		a := NewAngle(c.dx, c.dy)
		if got := a.Eval(c.t); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("case %d: Eval = %v, want %v", i, got, c.want)
		}
	}
}

func TestAngleIntersections(t *testing.T) {
	// Vector 1: fixed direction (1, 1). Vector 2: (1, t): parallel when
	// t = 1 with positive dot product.
	a := NewAngle(poly.Constant(1), poly.Constant(1))
	b := NewAngle(poly.Constant(1), poly.X())
	times, ident := a.Intersections(b, 0, math.Inf(1))
	if ident || len(times) != 1 || math.Abs(times[0]-1) > 1e-9 {
		t.Fatalf("angle intersections = %v, %v", times, ident)
	}
}

func TestAngleAntiparallel(t *testing.T) {
	// Vector 1: (1, 0). Vector 2: (1−t, 0): antiparallel once t > 1.
	// cross ≡ 0 so no isolated antiparallel times are reported there;
	// use a rotating vector instead: (cos-like) — vector 2: (1−t, 1−t)
	// against (1,1): cross ≡ 0. Pick genuinely rotating: (1, t) vs (−1, 1):
	// cross = 1·1 − t·(−1) = 1+t, never 0 on [0,∞).
	a := NewAngle(poly.Constant(1), poly.X())         // rotates from 0 to π/2
	b := NewAngle(poly.Constant(-1), poly.New(2, -1)) // (−1, 2−t)
	// cross = 1·(2−t) − t·(−1) = 2 − t + t = 2 → never parallel.
	times := a.AppendAntiparallelTimes(nil, b, 0, math.Inf(1))
	if len(times) != 0 {
		t.Fatalf("unexpected antiparallel times %v", times)
	}
	// (1, t) vs (−1, −t·…): b = (−1, −t) is exactly opposite of (1, t).
	c := NewAngle(poly.Constant(-1), poly.X().Neg())
	_, ident := a.Intersections(c, 0, math.Inf(1))
	if ident {
		t.Fatal("opposite vectors reported identical")
	}
	// (1, t) vs (−2, 1−2t): cross = 1·(1−2t) − t·(−2) = 1 − 2t + 2t = 1 ≠ 0.
	// Build a rotating pair with a real antiparallel event:
	// u = (1, t), v = (−1, t): cross = t + t = 2t, root at t=0, dot = −1+t².
	u := NewAngle(poly.Constant(1), poly.X())
	v := NewAngle(poly.Constant(-1), poly.X())
	anti := u.AppendAntiparallelTimes(nil, v, 0, math.Inf(1))
	if len(anti) != 1 || anti[0] != 0 {
		t.Fatalf("antiparallel times = %v, want [0]", anti)
	}
}

func TestAngleIdentical(t *testing.T) {
	// (1, t) and (2, 2t) point the same way for all t ≥ 0.
	a := NewAngle(poly.Constant(1), poly.X())
	b := NewAngle(poly.Constant(2), poly.X().Scale(2))
	_, ident := a.Intersections(b, 0, math.Inf(1))
	if !ident {
		t.Fatal("positively proportional vectors should be identical angles")
	}
}

func TestAngleDefined(t *testing.T) {
	// Vector (t−1, 0): vanishes at t=1 (collision).
	a := NewAngle(poly.New(-1, 1), nil)
	if a.Defined(1) {
		t.Fatal("angle should be undefined at collision time")
	}
	if !a.Defined(0) || !a.Defined(2) {
		t.Fatal("angle should be defined away from collision")
	}
}

// Property: angle intersection times really are equal-angle times.
func TestAngleIntersectionProperty(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		rp := func() poly.Poly {
			return poly.New(float64(r.Intn(7)-3), float64(r.Intn(7)-3))
		}
		a := NewAngle(rp(), rp())
		b := NewAngle(rp(), rp())
		times, ident := a.Intersections(b, 0, 100)
		if ident {
			continue
		}
		for _, tm := range times {
			if !a.Defined(tm) || !b.Defined(tm) {
				continue
			}
			da, db := a.Eval(tm), b.Eval(tm)
			d := math.Abs(da - db)
			if d > math.Pi {
				d = 2*math.Pi - d
			}
			if d > 1e-5 {
				t.Fatalf("trial %d: angles differ by %v at t=%v (a=%v b=%v)",
					trial, d, tm, a, b)
			}
		}
	}
}
