package dyncg_test

import (
	"math"
	"math/rand"
	"testing"

	"dyncg"
)

// newMachine is NewMachine for a topology that cannot fail at test sizes.
func newMachine(t *testing.T, topo dyncg.Topology, n int) *dyncg.Machine {
	t.Helper()
	m, err := dyncg.NewMachine(topo, n)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestQuickstartScenario exercises the documented quick-start flow end
// to end through the public facade.
func TestQuickstartScenario(t *testing.T) {
	sys, err := dyncg.NewSystem([]dyncg.Point{
		dyncg.NewPoint(dyncg.Polynomial(0), dyncg.Polynomial(0)),
		dyncg.NewPoint(dyncg.Polynomial(1, 2), dyncg.Polynomial(0)),
		dyncg.NewPoint(dyncg.Polynomial(0), dyncg.Polynomial(20, -1)),
	})
	if err != nil {
		t.Fatal(err)
	}
	m := newMachine(t, dyncg.Hypercube, dyncg.EnvelopePEs(sys.N(), 2*sys.K))
	seq, err := dyncg.ClosestPointSequence(m, sys, 0)
	if err != nil {
		t.Fatal(err)
	}
	// P1 at distance (1+2t); P2 at distance (20−t): P1 closest until
	// 1+2t = 20−t, i.e. t = 19/3.
	if len(seq) != 2 || seq[0].Point != 1 || seq[1].Point != 2 {
		t.Fatalf("sequence = %v", seq)
	}
	if math.Abs(seq[0].Hi-19.0/3) > 1e-9 {
		t.Fatalf("crossover = %v, want 19/3", seq[0].Hi)
	}
	if m.Stats().Time() <= 0 {
		t.Fatal("no simulated time recorded")
	}
}

func TestFacadeEndToEnd(t *testing.T) {
	r := rand.New(rand.NewSource(2024))
	sys := dyncg.RandomSystem(r, 12, 2, 2, 6)

	m := newMachine(t, dyncg.Mesh, dyncg.EnvelopePEs(sys.N(), 2*sys.K))
	if _, err := dyncg.FarthestPointSequence(m, sys, 3); err != nil {
		t.Fatal(err)
	}

	m = newMachine(t, dyncg.Hypercube, 8*sys.N())
	if _, err := dyncg.CollisionTimes(m, sys, 0); err != nil {
		t.Fatal(err)
	}

	m = newMachine(t, dyncg.Hypercube, dyncg.EnvelopePEs(sys.N(), 4*sys.K+2))
	ivs, err := dyncg.HullVertexIntervals(m, sys, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(ivs); i++ {
		if ivs[i].Lo < ivs[i-1].Hi {
			t.Fatalf("intervals out of order: %v", ivs)
		}
	}

	m = newMachine(t, dyncg.Hypercube, dyncg.EnvelopePEs(sys.N(), sys.K+2))
	if _, err := dyncg.ContainmentIntervals(m, sys, []float64{15, 15}); err != nil {
		t.Fatal(err)
	}
	m = newMachine(t, dyncg.Hypercube, dyncg.EnvelopePEs(sys.N(), sys.K+2))
	dfn, err := dyncg.SmallestHypercubeEdge(m, sys)
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := dfn.Eval(1); !ok || v < 0 {
		t.Fatalf("D(1) = %v, %v", v, ok)
	}
	m = newMachine(t, dyncg.Hypercube, dyncg.EnvelopePEs(sys.N(), sys.K+2))
	dmin, tmin, err := dyncg.SmallestEverHypercube(m, sys)
	if err != nil || dmin < 0 || tmin < 0 {
		t.Fatalf("smallest ever: %v %v %v", dmin, tmin, err)
	}

	// Steady-state battery.
	m = newMachine(t, dyncg.Mesh, sys.N())
	if _, err := dyncg.SteadyNearestNeighbor(m, sys, 0, false); err != nil {
		t.Fatal(err)
	}
	m = newMachine(t, dyncg.Hypercube, 4*sys.N())
	if _, _, err := dyncg.SteadyClosestPair(m, sys); err != nil {
		t.Fatal(err)
	}
	m = newMachine(t, dyncg.Hypercube, 8*sys.N())
	hull, err := dyncg.SteadyHull(m, sys)
	if err != nil {
		t.Fatal(err)
	}
	if len(hull) < 3 {
		t.Fatalf("steady hull too small: %v", hull)
	}
	m = newMachine(t, dyncg.Hypercube, 8*sys.N())
	a, b, d2, err := dyncg.SteadyFarthestPair(m, sys)
	if err != nil || a == b || d2.Degree() < 0 {
		t.Fatalf("farthest pair: %v %v %v %v", a, b, d2, err)
	}
	m = newMachine(t, dyncg.Hypercube, 8*sys.N())
	rect, err := dyncg.SteadyMinAreaRect(m, sys)
	if err != nil || rect.Area.Sign() <= 0 {
		t.Fatalf("rect: %+v %v", rect, err)
	}
}

func TestLambdaFacade(t *testing.T) {
	if dyncg.Lambda(10, 1) != 10 || dyncg.Lambda(10, 2) != 19 {
		t.Fatal("Lambda closed forms broken")
	}
	if dyncg.EnvelopePEs(10, 2) < 19 {
		t.Fatal("EnvelopePEs below λ")
	}
}

// TestSteadyNearestNeighborAnyDimension: the facade's Proposition 5.2
// answers 3-D systems (the planar implementation rejected them with
// ErrBadSystem) and its answer, nearest and farthest, matches a
// brute-force comparison of the squared distances at t → ∞.
func TestSteadyNearestNeighborAnyDimension(t *testing.T) {
	r := rand.New(rand.NewSource(30))
	for trial := 0; trial < 10; trial++ {
		sys := dyncg.RandomSystem(r, 3+r.Intn(20), 1+r.Intn(2), 3, 10)
		origin := r.Intn(sys.N())
		for _, farthest := range []bool{false, true} {
			for _, topo := range []dyncg.Topology{dyncg.Mesh, dyncg.Hypercube} {
				got, err := dyncg.SteadyNearestNeighbor(newMachine(t, topo, sys.N()), sys, origin, farthest)
				if err != nil {
					t.Fatalf("trial %d %s: %v", trial, topo, err)
				}
				best := -1
				for j := range sys.Points {
					if j == origin {
						continue
					}
					if best < 0 {
						best = j
						continue
					}
					c := sys.Points[origin].DistSq(sys.Points[j]).CompareAtInfinity(sys.Points[origin].DistSq(sys.Points[best]))
					if farthest {
						c = -c
					}
					if c < 0 {
						best = j
					}
				}
				gd := sys.Points[origin].DistSq(sys.Points[got])
				if got == origin || gd.CompareAtInfinity(sys.Points[origin].DistSq(sys.Points[best])) != 0 {
					t.Fatalf("trial %d %s farthest=%v: got %d, oracle %d", trial, topo, farthest, got, best)
				}
			}
		}
	}
}
