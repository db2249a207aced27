package motion

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"dyncg/internal/poly"
)

func TestPointBasics(t *testing.T) {
	p := NewPoint(poly.New(1, 2), poly.New(0, 0, 1)) // (1+2t, t²)
	if p.Dim() != 2 || p.Degree() != 2 {
		t.Fatalf("dim=%d deg=%d", p.Dim(), p.Degree())
	}
	pos := p.At(2)
	if pos[0] != 5 || pos[1] != 4 {
		t.Fatalf("At(2) = %v", pos)
	}
}

func TestDistSqDegreeBound(t *testing.T) {
	r := rand.New(rand.NewSource(61))
	for trial := 0; trial < 50; trial++ {
		k := 1 + r.Intn(3)
		s := Random(r, 2, k, 3, 5)
		d2 := s.Points[0].DistSq(s.Points[1])
		if d2.Degree() > 2*k {
			t.Fatalf("deg d² = %d > 2k = %d", d2.Degree(), 2*k)
		}
		// d²(t) ≥ 0 and matches coordinates at samples.
		for i := 0; i < 20; i++ {
			tm := float64(i) * 0.3
			a, b := s.Points[0].At(tm), s.Points[1].At(tm)
			want := 0.0
			for c := range a {
				want += (a[c] - b[c]) * (a[c] - b[c])
			}
			if got := d2.Eval(tm); math.Abs(got-want) > 1e-6*(1+want) {
				t.Fatalf("d²(%v) = %v, want %v", tm, got, want)
			}
		}
	}
}

func TestDistSqDimMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewPoint(poly.New(1)).DistSq(NewPoint(poly.New(1), poly.New(2)))
}

func TestNewSystemValidation(t *testing.T) {
	if _, err := NewSystem(nil); err == nil {
		t.Error("empty system accepted")
	}
	_, err := NewSystem([]Point{
		NewPoint(poly.New(1), poly.New(2)),
		NewPoint(poly.New(1)),
	})
	if err == nil {
		t.Error("dimension mismatch accepted")
	}
	// Same initial position violates §2.4.
	_, err = NewSystem([]Point{
		NewPoint(poly.New(1, 5), poly.New(2)),
		NewPoint(poly.New(1, -3), poly.New(2, 1)),
	})
	if err == nil {
		t.Error("shared initial position accepted")
	}
	// A point needs at least one coordinate, even alone in its system.
	if _, err := NewSystem([]Point{NewPoint()}); !errors.Is(err, ErrBadSystem) {
		t.Errorf("zero-dimension system: %v, want ErrBadSystem", err)
	}
}

func TestRandomSystemProperties(t *testing.T) {
	r := rand.New(rand.NewSource(62))
	s := Random(r, 20, 2, 2, 10)
	if s.N() != 20 || s.K > 2 || s.D != 2 {
		t.Fatalf("system: n=%d k=%d d=%d", s.N(), s.K, s.D)
	}
	cs, ids := s.DistSqCurves(3)
	if len(cs) != 19 || len(ids) != 19 {
		t.Fatalf("DistSqCurves sizes: %d, %d", len(cs), len(ids))
	}
	for _, id := range ids {
		if id == 3 {
			t.Fatal("origin included in its own neighbour curves")
		}
	}
	xs := s.CoordCurves(0)
	if len(xs) != 20 {
		t.Fatalf("CoordCurves size %d", len(xs))
	}
}

func TestConvergingCollides(t *testing.T) {
	r := rand.New(rand.NewSource(63))
	s := Converging(r, 10)
	// Every point passes through the origin at some positive time.
	for i, p := range s.Points {
		x := p.Coord[0]
		roots := x.RootsNonNeg()
		if len(roots) == 0 && math.Abs(x.Eval(0)) > 1e-12 {
			t.Fatalf("point %d never reaches x=0: %v", i, x)
		}
	}
}

func TestOnCircleAllExtreme(t *testing.T) {
	s := OnCircle(12, 5)
	if s.K != 0 {
		t.Fatalf("OnCircle K = %d", s.K)
	}
	for _, p := range s.Points {
		pos := p.At(0)
		rad := math.Hypot(pos[0], pos[1])
		if math.Abs(rad-5) > 1e-9 {
			t.Fatalf("point off circle: %v (r=%v)", pos, rad)
		}
	}
}

func TestDivergingDistinctDirections(t *testing.T) {
	r := rand.New(rand.NewSource(64))
	s := Diverging(r, 16)
	seen := map[[2]float64]bool{}
	for _, p := range s.Points {
		v := [2]float64{p.Coord[0].Coef(1), p.Coord[1].Coef(1)}
		if seen[v] {
			t.Fatalf("duplicate velocity %v", v)
		}
		seen[v] = true
		if math.Abs(math.Hypot(v[0], v[1])-1) > 1e-9 {
			t.Fatalf("velocity not unit: %v", v)
		}
	}
}

func TestSteadyProjection(t *testing.T) {
	p := NewPoint(poly.New(3, 1), poly.New(7))
	sx := p.Steady(0)
	sy := p.Steady(1)
	if sx.Cmp(sy) != 1 {
		t.Fatal("3+t should exceed 7 at infinity")
	}
}

func TestAngleTo(t *testing.T) {
	p := NewPoint(poly.New(0), poly.New(0))
	q := NewPoint(poly.New(1), poly.New(0, 1))
	a := p.AngleTo(q)
	if got := a.Eval(0); got != 0 {
		t.Fatalf("angle at t=0 = %v, want 0", got)
	}
	if got := a.Eval(1); math.Abs(got-math.Pi/4) > 1e-12 {
		t.Fatalf("angle at t=1 = %v, want π/4", got)
	}
}
