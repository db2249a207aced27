package core

import (
	"math"
	"math/rand"
	"testing"

	"dyncg/internal/geom"
	"dyncg/internal/machine"
	"dyncg/internal/motion"
	"dyncg/internal/ratfun"
)

// lateTime returns a time far beyond the dynamics' transients, for
// validating steady-state answers against static geometry.
const lateTime = 1e7

func TestProposition52SteadyNearest(t *testing.T) {
	r := rand.New(rand.NewSource(111))
	for trial := 0; trial < 15; trial++ {
		n := 3 + r.Intn(12)
		sys := motion.Random(r, n, 1, 2, 5)
		origin := r.Intn(n)
		for _, m := range []*machine.M{meshOf(4 * n), cubeOf(4 * n)} {
			got, err := SteadyNearestNeighborD(m, sys, origin, false)
			if err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
			// Validate at a very late time.
			pts := StaticPointsAt(sys, lateTime)
			bestD := math.Inf(1)
			for j := range pts {
				if j == origin {
					continue
				}
				if d := float64(geom.DistSq(pts[j], pts[origin])); d < bestD {
					bestD = d
				}
			}
			gd := float64(geom.DistSq(pts[got], pts[origin]))
			if math.Abs(gd-bestD) > 1e-6*(1+bestD) {
				t.Fatalf("trial %d: steady nearest %d has d²=%v at late time, best %v",
					trial, got, gd, bestD)
			}
		}
	}
}

// TestC3SteadyShortcutAgreesWithTransient ties §4 and §5 together: the
// last element of the transient sequence equals the steady answer, and
// the direct steady algorithm is cheaper (comparison C3).
func TestC3SteadyShortcutAgreesWithTransient(t *testing.T) {
	r := rand.New(rand.NewSource(112))
	for trial := 0; trial < 10; trial++ {
		n := 3 + r.Intn(8)
		sys := motion.Random(r, n, 1, 2, 4)
		origin := r.Intn(n)

		mDirect := meshOf(4 * n)
		direct, err := SteadyNearestNeighborD(mDirect, sys, origin, false)
		if err != nil {
			t.Fatal(err)
		}
		mSeq := meshFor(n, 2)
		viaSeq, err := SteadyNearestViaTransient(mSeq, sys, origin)
		if err != nil {
			t.Fatal(err)
		}
		// The two must agree up to exact distance ties at infinity.
		da := sys.Points[direct].DistSq(sys.Points[origin])
		db := sys.Points[viaSeq].DistSq(sys.Points[origin])
		if da.CompareAtInfinity(db) != 0 {
			t.Fatalf("trial %d: direct %d vs transient-tail %d disagree", trial, direct, viaSeq)
		}
		// And the direct route must be cheaper in simulated time.
		if trial == 0 && mDirect.Stats().Time() >= mSeq.Stats().Time() {
			t.Logf("note: direct=%v seq=%v (expected direct < seq at larger n)",
				mDirect.Stats().Time(), mSeq.Stats().Time())
		}
	}
}

func TestProposition53SteadyClosestPair(t *testing.T) {
	r := rand.New(rand.NewSource(113))
	for trial := 0; trial < 10; trial++ {
		n := 3 + r.Intn(10)
		sys := motion.Random(r, n, 1, 2, 5)
		m := cubeOf(4 * n)
		a, b, err := SteadyClosestPair(m, sys)
		if err != nil {
			t.Fatal(err)
		}
		pts, _ := SteadyPoints(sys)
		_, _, want := geom.ClosestPair(pts)
		got := geom.DistSq(pts[a], pts[b])
		if got.Cmp(want) != 0 {
			t.Fatalf("trial %d: steady closest pair (%d,%d) not minimal", trial, a, b)
		}
	}
}

func TestProposition54SteadyHull(t *testing.T) {
	r := rand.New(rand.NewSource(114))
	for trial := 0; trial < 10; trial++ {
		n := 4 + r.Intn(10)
		sys := motion.Diverging(r, n)
		m := cubeOf(4 * n)
		got, err := SteadyHull(m, sys)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		pts, _ := SteadyPoints(sys)
		want := geom.Hull(pts)
		if len(got) != len(want) {
			t.Fatalf("trial %d: hull size %d, want %d", trial, len(got), len(want))
		}
		// Diverging systems: every point extreme in the steady state.
		if len(got) != n {
			t.Fatalf("trial %d: diverging system should have all %d points extreme, got %d",
				trial, n, len(got))
		}
	}
}

func TestCorollary57SteadyFarthestPair(t *testing.T) {
	r := rand.New(rand.NewSource(115))
	for trial := 0; trial < 10; trial++ {
		n := 4 + r.Intn(10)
		sys := motion.Random(r, n, 1, 2, 5)
		m := cubeOf(4 * n)
		a, b, d2, err := SteadyFarthestPair(m, sys)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		pts, _ := SteadyPoints(sys)
		_, _, want := geom.FarthestPair(pts)
		got := geom.DistSq(pts[a], pts[b])
		if got.Cmp(want) != 0 {
			t.Fatalf("trial %d: farthest pair (%d,%d) not maximal", trial, a, b)
		}
		// The returned d² polynomial evaluates to the true distance late.
		late := StaticPointsAt(sys, lateTime)
		trueD := float64(geom.DistSq(late[a], late[b]))
		if math.Abs(d2.Eval(lateTime)-trueD) > 1e-6*(1+trueD) {
			t.Fatalf("trial %d: diameter function mismatch", trial)
		}
	}
}

func TestCorollary59SteadyMinAreaRect(t *testing.T) {
	r := rand.New(rand.NewSource(116))
	for trial := 0; trial < 8; trial++ {
		n := 5 + r.Intn(8)
		sys := motion.Diverging(r, n)
		m := cubeOf(4 * n)
		rect, err := SteadyMinAreaRect(m, sys)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		pts, _ := SteadyPoints(sys)
		hull := geom.Hull(pts)
		want := geom.MinAreaRect(hull)
		if rect.Area.Cmp(want.Area) != 0 {
			t.Fatalf("trial %d: steady rect area %v, want %v", trial, rect.Area, want.Area)
		}
		// The rectangle contains every point at a late time (numeric with
		// tolerance: hull vertices sit exactly on the boundary and the
		// rational-function corner coordinates carry float rounding).
		at := func(q geom.Point[ratfun.RatFun]) (float64, float64) {
			return q.X.Eval(lateTime), q.Y.Eval(lateTime)
		}
		for _, p := range pts {
			px, py := at(p)
			for e := 0; e < 4; e++ {
				ax, ay := at(rect.Corners[e])
				bx, by := at(rect.Corners[(e+1)%4])
				cr := (bx-ax)*(py-ay) - (by-ay)*(px-ax)
				scale := (bx-ax)*(bx-ax) + (by-ay)*(by-ay)
				if cr < -1e-6*scale {
					t.Fatalf("trial %d: point %d outside steady rectangle (cr=%v)",
						trial, p.ID, cr)
				}
			}
		}
	}
}

func TestSteadyRejectsNonPlanar(t *testing.T) {
	r := rand.New(rand.NewSource(117))
	sys := motion.Random(r, 4, 1, 3, 5)
	if _, err := SteadyHull(cubeOf(16), sys); err == nil {
		t.Fatal("3-D system accepted by planar steady-state algorithm")
	}
}

// TestTable3CostShape: steady-state nearest neighbour is Θ(√n)/Θ(log n),
// notably cheaper than the sort-bounded problems.
func TestTable3CostShape(t *testing.T) {
	r := rand.New(rand.NewSource(118))
	sizes := []int{64, 256, 1024}
	var nnMesh, cpMesh []float64
	for _, n := range sizes {
		sys := motion.Random(r, n, 1, 2, 10)
		m := meshOf(n)
		if _, err := SteadyNearestNeighborD(m, sys, 0, false); err != nil {
			t.Fatal(err)
		}
		nnMesh = append(nnMesh, float64(m.Stats().Time()))
		m2 := meshOf(4 * n)
		if _, _, err := SteadyClosestPair(m2, sys); err != nil {
			t.Fatal(err)
		}
		cpMesh = append(cpMesh, float64(m2.Stats().Time()))
	}
	for i := 1; i < len(sizes); i++ {
		if ratio := nnMesh[i] / nnMesh[i-1]; ratio > 3 {
			t.Errorf("mesh steady NN not Θ(√n): %v", nnMesh)
		}
		if ratio := cpMesh[i] / cpMesh[i-1]; ratio > 3.4 {
			t.Errorf("mesh steady closest pair not Θ(√n): %v", cpMesh)
		}
	}
}
