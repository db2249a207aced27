package poly

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*(1+math.Abs(a)+math.Abs(b))
}

func TestZeroPolynomial(t *testing.T) {
	var z Poly
	if !z.IsZero() || z.Degree() != -1 || z.Eval(3) != 0 {
		t.Fatalf("zero polynomial misbehaves: deg=%d eval=%v", z.Degree(), z.Eval(3))
	}
	if got := New(0, 0, 0); !got.IsZero() {
		t.Fatalf("New(0,0,0) not zero: %v", got)
	}
	if z.String() != "0" {
		t.Fatalf("zero String = %q", z.String())
	}
}

// TestIsZeroMatchesNormalize: the early-exit IsZero scan agrees with
// "normalize trims p to nothing" on signed zeros, NaN, infinities,
// subnormals and negligible trailing coefficients.
func TestIsZeroMatchesNormalize(t *testing.T) {
	special := []float64{0, math.Copysign(0, -1), 1, -1e-300, 5e-324, 1e-13, math.NaN(), math.Inf(1), math.Inf(-1), 1e300}
	r := rand.New(rand.NewSource(3))
	for trial := 0; trial < 2000; trial++ {
		p := make(Poly, r.Intn(5))
		for i := range p {
			p[i] = special[r.Intn(len(special))]
		}
		if got, want := p.IsZero(), len(p.normalize()) == 0; got != want {
			t.Fatalf("IsZero(%v) = %v, normalize says %v", []float64(p), got, want)
		}
	}
}

// TestToVariantsMatchAllocating: AddTo, MulTo and NegTo give the same
// bits into a reused, dirty dst as into a fresh slice, write into dst's
// storage when it has room, and with a nil dst keep Neg's non-nil empty
// result.
func TestToVariantsMatchAllocating(t *testing.T) {
	same := func(a, b Poly) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
				return false
			}
		}
		return true
	}
	r := rand.New(rand.NewSource(8))
	buf := make(Poly, 16)
	for trial := 0; trial < 500; trial++ {
		p, q := randPoly(r, 4), randPoly(r, 4)
		for i := range buf {
			buf[i] = r.NormFloat64() // dirty storage
		}
		for name, op := range map[string]func(dst Poly) Poly{
			"Add": func(dst Poly) Poly { return AddTo(dst, p, q) },
			"Mul": func(dst Poly) Poly { return MulTo(dst, p, q) },
			"Neg": func(dst Poly) Poly { return NegTo(dst, p) },
		} {
			got, want := op(buf[:0]), op(nil)
			if !same(got, want) {
				t.Fatalf("%sTo(dst, %v, %v) = %v, allocating %v", name, p, q, got, want)
			}
			if len(got) > 0 && &got[0] != &buf[0] {
				t.Fatalf("%sTo did not write into dst", name)
			}
		}
	}
	if n := Poly(nil).Neg(); n == nil || len(n) != 0 {
		t.Fatalf("nil.Neg() = %#v, want a non-nil empty slice", n)
	}
}

func TestEvalHorner(t *testing.T) {
	p := New(1, -2, 3) // 3t² − 2t + 1
	cases := []struct{ t, want float64 }{
		{0, 1}, {1, 2}, {2, 9}, {-1, 6},
	}
	for _, c := range cases {
		if got := p.Eval(c.t); got != c.want {
			t.Errorf("p(%v) = %v, want %v", c.t, got, c.want)
		}
	}
}

func TestEvalAtInfinity(t *testing.T) {
	if got := New(5, 0, -1).Eval(math.Inf(1)); !math.IsInf(got, -1) {
		t.Errorf("(-t²+5)(∞) = %v, want -Inf", got)
	}
	if got := New(5, 2).Eval(math.Inf(-1)); !math.IsInf(got, -1) {
		t.Errorf("(2t+5)(-∞) = %v, want -Inf", got)
	}
	if got := Constant(7).Eval(math.Inf(1)); got != 7 {
		t.Errorf("const(∞) = %v, want 7", got)
	}
}

func TestArithmetic(t *testing.T) {
	p := New(1, 2)     // 2t+1
	q := New(-1, 0, 1) // t²−1
	if got, want := p.Add(q), New(0, 2, 1); !got.Equal(want) {
		t.Errorf("Add = %v, want %v", got, want)
	}
	if got, want := p.Mul(q), New(-1, -2, 1, 2); !got.Equal(want) {
		t.Errorf("Mul = %v, want %v", got, want)
	}
	if got, want := q.Sub(q), Poly(nil); !got.Equal(want) {
		t.Errorf("Sub self = %v, want 0", got)
	}
	if got, want := p.Neg(), New(-1, -2); !got.Equal(want) {
		t.Errorf("Neg = %v, want %v", got, want)
	}
}

func randPoly(r *rand.Rand, maxDeg int) Poly {
	d := r.Intn(maxDeg + 1)
	c := make(Poly, d+1)
	for i := range c {
		c[i] = r.NormFloat64() * 3
	}
	return c.normalize()
}

// Property: ring identities hold pointwise at random sample times.
func TestRingAxiomsProperty(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	f := func(seed int64, at float64) bool {
		rr := rand.New(rand.NewSource(seed))
		p, q, s := randPoly(rr, 5), randPoly(rr, 5), randPoly(rr, 5)
		x := math.Mod(at, 4)
		lhs := p.Mul(q.Add(s)).Eval(x)
		rhs := p.Mul(q).Add(p.Mul(s)).Eval(x)
		return almostEq(lhs, rhs, 1e-8)
	}
	cfg := &quick.Config{MaxCount: 200, Rand: r}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestShift(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for i := 0; i < 100; i++ {
		p := randPoly(r, 6)
		a := r.NormFloat64()
		q := p.Shift(a)
		x := r.NormFloat64() * 2
		if !almostEq(q.Eval(x), p.Eval(x+a), 1e-8) {
			t.Fatalf("Shift mismatch: p=%v a=%v x=%v got=%v want=%v",
				p, a, x, q.Eval(x), p.Eval(x+a))
		}
	}
}

func TestDerivative(t *testing.T) {
	p := New(1, 2, 3, 4) // 4t³+3t²+2t+1
	want := New(2, 6, 12)
	if got := p.Derivative(); !got.Equal(want) {
		t.Errorf("Derivative = %v, want %v", got, want)
	}
	if got := Constant(5).Derivative(); !got.IsZero() {
		t.Errorf("d/dt const = %v, want 0", got)
	}
}

func TestFromRootsRecovery(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		n := 1 + r.Intn(4)
		want := make([]float64, n)
		for i := range want {
			want[i] = float64(r.Intn(9)) * 0.5 // well-separated-ish roots
		}
		p := FromRoots(want...)
		got := p.Roots(-1, 10)
		// Every distinct wanted root must appear.
		seen := map[float64]bool{}
		for _, w := range want {
			found := false
			for _, g := range got {
				if almostEq(g, w, 1e-6) {
					found = true
				}
			}
			if !found {
				t.Fatalf("trial %d: root %v of %v not found in %v", trial, w, p, got)
			}
			seen[w] = true
		}
		if len(got) > n {
			t.Fatalf("trial %d: too many roots %v for %v", trial, got, p)
		}
		_ = seen
	}
}

func TestRootsRespectInterval(t *testing.T) {
	p := FromRoots(-2, 1, 3)
	got := p.RootsNonNeg()
	if len(got) != 2 || !almostEq(got[0], 1, 1e-9) || !almostEq(got[1], 3, 1e-9) {
		t.Fatalf("RootsNonNeg = %v, want [1 3]", got)
	}
}

func TestDoubleRoot(t *testing.T) {
	p := FromRoots(2, 2) // (t−2)²
	got := p.Roots(0, 10)
	if len(got) != 1 || !almostEq(got[0], 2, 1e-5) {
		t.Fatalf("double root: got %v, want [2]", got)
	}
}

func TestQuadraticStability(t *testing.T) {
	// b² ≫ 4ac: naive formula loses the small root.
	p := New(1, -1e8, 1) // t² − 1e8·t + 1; roots ≈ 1e-8 and 1e8
	got := p.Roots(0, math.Inf(1))
	if len(got) != 2 {
		t.Fatalf("got %v", got)
	}
	if !almostEq(got[0], 1e-8, 1e-6) {
		t.Errorf("small root = %v, want 1e-8", got[0])
	}
}

func TestHighDegreeRoots(t *testing.T) {
	// Degree 8 with known roots — exercises the recursive isolation.
	roots := []float64{0.5, 1, 2, 3, 5, 7, 8, 9}
	p := FromRoots(roots...)
	got := p.Roots(0, 20)
	if len(got) != len(roots) {
		t.Fatalf("got %d roots %v, want %d", len(got), got, len(roots))
	}
	for i := range roots {
		if !almostEq(got[i], roots[i], 1e-5) {
			t.Errorf("root %d = %v, want %v", i, got[i], roots[i])
		}
	}
}

func TestSignAtInfinityAndCompare(t *testing.T) {
	if New(100, -1).SignAtInfinity() != -1 {
		t.Error("−t+100 should be negative at ∞")
	}
	if New(0, 0, 2).CompareAtInfinity(New(1e9, 1)) != 1 {
		t.Error("2t² should exceed t+1e9 at ∞")
	}
	if New(1, 2).CompareAtInfinity(New(1, 2)) != 0 {
		t.Error("identical polynomials compare equal at ∞")
	}
}

// Property: CompareAtInfinity agrees with evaluation at a huge time.
func TestCompareAtInfinityProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		p, q := randPoly(r, 4), randPoly(r, 4)
		c := p.CompareAtInfinity(q)
		if c == 0 {
			return p.Sub(q).IsZero()
		}
		// Beyond the Cauchy bound of p−q the sign is settled.
		T := p.Sub(q).CauchyRootBound() + 10
		diff := p.Eval(T) - q.Eval(T)
		return (diff < 0) == (c < 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestIntersectionTimes(t *testing.T) {
	f := New(0, 0, 1) // t²
	g := New(2, 1)    // t+2
	got := f.IntersectionTimes(g, 0, math.Inf(1))
	if len(got) != 1 || !almostEq(got[0], 2, 1e-9) {
		t.Fatalf("t²=t+2 on [0,∞): got %v, want [2]", got)
	}
}

func TestString(t *testing.T) {
	cases := []struct {
		p    Poly
		want string
	}{
		{New(1, -2, 3), "3t^2 - 2t + 1"},
		{New(0, 1), "t"},
		{New(-1), "-1"},
		{New(0, 0, -1), "-t^2"},
	}
	for _, c := range cases {
		if got := c.p.String(); got != c.want {
			t.Errorf("String(%v) = %q, want %q", []float64(c.p), got, c.want)
		}
	}
}

func TestCauchyBoundContainsRoots(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	for i := 0; i < 200; i++ {
		p := randPoly(r, 6)
		if p.Degree() < 1 {
			continue
		}
		b := p.CauchyRootBound()
		for _, root := range p.Roots(-b-1, b+1) {
			if math.Abs(root) > b+1e-9 {
				t.Fatalf("root %v outside Cauchy bound %v for %v", root, b, p)
			}
		}
	}
}

// TestSubIsZeroMatchesSub: SubIsZero(p, q) is p.Sub(q).IsZero(), and
// SubTo into a buffer gives Sub's coefficients bit for bit, on random
// pairs that include identical, near-cancelling (inside cancelEps),
// barely distinct and differently long operands.
func TestSubIsZeroMatchesSub(t *testing.T) {
	r := rand.New(rand.NewSource(37))
	randPoly := func() Poly {
		c := make([]float64, r.Intn(6))
		for i := range c {
			c[i] = float64(r.Intn(7)-3) * math.Pow(10, float64(r.Intn(7)-3))
		}
		return c
	}
	for trial := 0; trial < 4000; trial++ {
		p, q := randPoly(), randPoly()
		switch trial % 4 {
		case 0:
			q = append(Poly(nil), p...)
		case 1, 2:
			rel := []float64{1e-13, 1e-10}[trial%4-1]
			q = make(Poly, len(p), len(p)+2)
			for i, c := range p {
				q[i] = c * (1 + rel*(2*r.Float64()-1))
			}
			if r.Intn(2) == 0 {
				q = append(q, 0) // a trailing zero coefficient
			}
		}
		diff := p.Sub(q)
		if got, want := SubIsZero(p, q), diff.IsZero(); got != want {
			t.Fatalf("SubIsZero(%v, %v) = %v, Sub gives %v", []float64(p), []float64(q), got, diff)
		}
		var buf [8]float64
		to := SubTo(buf[:0], p, q)
		if len(to) != len(diff) {
			t.Fatalf("SubTo(%v, %v) = %v, Sub = %v", []float64(p), []float64(q), to, diff)
		}
		for i := range to {
			if math.Float64bits(to[i]) != math.Float64bits(diff[i]) {
				t.Fatalf("SubTo(%v, %v) = %v, Sub = %v", []float64(p), []float64(q), to, diff)
			}
		}
		if p.Equal(q) != diff.IsZero() {
			t.Fatalf("Equal(%v, %v) disagrees with Sub", []float64(p), []float64(q))
		}
	}
}

// TestAppendRootsMatchesRoots: AppendRoots appends exactly Roots's
// roots after an existing prefix and leaves the prefix alone, at every
// degree (closed forms below 3, isolation above).
func TestAppendRootsMatchesRoots(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	for trial := 0; trial < 2000; trial++ {
		c := make([]float64, 1+r.Intn(6))
		for i := range c {
			c[i] = float64(r.Intn(11) - 5)
		}
		p := New(c...)
		lo, hi := float64(r.Intn(5)-2), math.Inf(1)
		if r.Intn(2) == 0 {
			hi = lo + float64(1+r.Intn(6))
		}
		want := p.Roots(lo, hi)
		prefix := []float64{-7, 3}
		got := p.AppendRoots(append([]float64(nil), prefix...), lo, hi)
		if len(got) != len(prefix)+len(want) || got[0] != prefix[0] || got[1] != prefix[1] {
			t.Fatalf("%v.AppendRoots(%v, %v, %v) = %v, Roots = %v", p, prefix, lo, hi, got, want)
		}
		for i, w := range want {
			if math.Float64bits(got[len(prefix)+i]) != math.Float64bits(w) {
				t.Fatalf("%v.AppendRoots(%v, %v, %v) = %v, Roots = %v", p, prefix, lo, hi, got, want)
			}
		}
	}
}
