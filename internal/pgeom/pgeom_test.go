package pgeom

import (
	"math/rand"
	"slices"
	"testing"

	"dyncg/internal/dsseq"
	"dyncg/internal/geom"
	"dyncg/internal/hypercube"
	"dyncg/internal/machine"
	"dyncg/internal/mesh"
	"dyncg/internal/poly"
	"dyncg/internal/ratfun"
)

func meshFor(n int) *machine.M {
	return machine.New(mesh.MustNew(dsseq.NextPow4(4*n), mesh.Proximity))
}
func cubeFor(n int) *machine.M {
	return machine.New(hypercube.MustNew(dsseq.NextPow2(4 * n)))
}

func fpts(r *rand.Rand, n int) []geom.Point[ratfun.F64] {
	pts := make([]geom.Point[ratfun.F64], n)
	for i := range pts {
		pts[i] = geom.Point[ratfun.F64]{
			X: ratfun.F64(r.NormFloat64() * 10), Y: ratfun.F64(r.NormFloat64() * 10), ID: i,
		}
	}
	return pts
}

func rpts(r *rand.Rand, n, k int) []geom.Point[ratfun.RatFun] {
	pts := make([]geom.Point[ratfun.RatFun], n)
	for i := range pts {
		mk := func() ratfun.RatFun {
			c := make([]float64, k+1)
			for j := range c {
				c[j] = r.NormFloat64() * 4
			}
			return ratfun.FromPoly(poly.New(c...))
		}
		pts[i] = geom.Point[ratfun.RatFun]{X: mk(), Y: mk(), ID: i}
	}
	return pts
}

func hullIDSet(h []geom.Point[ratfun.F64]) map[int]bool {
	s := map[int]bool{}
	for _, p := range h {
		s[p.ID] = true
	}
	return s
}

// TestHullStaticMatchesSerial: parallel dual-envelope hull equals the
// serial monotone chain, in membership and CCW order, on both topologies.
func TestHullStaticMatchesSerial(t *testing.T) {
	r := rand.New(rand.NewSource(81))
	for trial := 0; trial < 40; trial++ {
		n := 3 + r.Intn(40)
		pts := fpts(r, n)
		want := geom.Hull(pts)
		for _, m := range []*machine.M{meshFor(n), cubeFor(n)} {
			got, err := HullStatic(m, pts)
			if err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
			if len(got) != len(want) {
				t.Fatalf("trial %d %s: hull size %d, want %d (%v)",
					trial, m.Topology().Name(), len(got), len(want), got)
			}
			wantSet := hullIDSet(want)
			for _, id := range got {
				if !wantSet[id] {
					t.Fatalf("trial %d: spurious hull vertex %d", trial, id)
				}
			}
			// CCW: find the rotation aligning got with want.
			start := -1
			for i, p := range want {
				if p.ID == got[0] {
					start = i
				}
			}
			if start < 0 {
				t.Fatalf("trial %d: got[0]=%d not in serial hull", trial, got[0])
			}
			for i := range got {
				if got[i] != want[(start+i)%len(want)].ID {
					t.Fatalf("trial %d: order mismatch: got %v want rotation of %v",
						trial, got, want)
				}
			}
		}
	}
}

func TestHullStaticDegenerate(t *testing.T) {
	m := cubeFor(4)
	// Duplicates and collinear points.
	pts := []geom.Point[ratfun.F64]{
		{X: 0, Y: 0, ID: 0}, {X: 0, Y: 0, ID: 1},
		{X: 2, Y: 2, ID: 2}, {X: 1, Y: 1, ID: 3},
	}
	got, err := HullStatic(m, pts)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("collinear hull = %v", got)
	}
}

// TestHullSteadyMatchesSerial: the Las-Vegas steady-state hull equals the
// exact serial hull over the rational-function field.
func TestHullSteadyMatchesSerial(t *testing.T) {
	r := rand.New(rand.NewSource(82))
	for trial := 0; trial < 25; trial++ {
		n := 3 + r.Intn(16)
		pts := rpts(r, n, 1+r.Intn(2))
		want := geom.Hull(pts)
		m := cubeFor(n)
		got, err := HullSteady(m, pts)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d: hull size %d, want %d", trial, len(got), len(want))
		}
		wantSet := map[int]bool{}
		for _, p := range want {
			wantSet[p.ID] = true
		}
		for _, id := range got {
			if !wantSet[id] {
				t.Fatalf("trial %d: spurious steady hull vertex %d", trial, id)
			}
		}
	}
}

// TestClosestPairMatchesSerial on both topologies and both fields.
func TestClosestPairMatchesSerial(t *testing.T) {
	r := rand.New(rand.NewSource(84))
	for trial := 0; trial < 40; trial++ {
		n := 2 + r.Intn(50)
		pts := fpts(r, n)
		_, _, want := geom.ClosestPair(pts)
		for _, m := range []*machine.M{meshFor(n), cubeFor(n)} {
			a, b, got := ClosestPair(m, pts)
			if a == b {
				t.Fatalf("trial %d: degenerate pair", trial)
			}
			if got.Cmp(want) != 0 {
				t.Fatalf("trial %d %s: d²=%v, want %v", trial, m.Topology().Name(), got, want)
			}
			if geom.DistSq(pts[a], pts[b]).Cmp(got) != 0 {
				t.Fatalf("trial %d: pair does not realise distance", trial)
			}
		}
	}
}

func TestSteadyClosestPair(t *testing.T) {
	r := rand.New(rand.NewSource(85))
	for trial := 0; trial < 15; trial++ {
		n := 2 + r.Intn(12)
		pts := rpts(r, n, 1)
		_, _, want := geom.ClosestPair(pts)
		m := cubeFor(n)
		_, _, got := ClosestPair(m, pts)
		if got.Cmp(want) != 0 {
			t.Fatalf("trial %d: steady d² mismatch: %v vs %v", trial, got, want)
		}
	}
}

// TestAntipodalMatchesSerial: machine antipodal pairs = serial oracle.
func TestAntipodalMatchesSerial(t *testing.T) {
	r := rand.New(rand.NewSource(86))
	for trial := 0; trial < 30; trial++ {
		pts := fpts(r, 4+r.Intn(30))
		hull := geom.Hull(pts)
		if len(hull) < 3 {
			continue
		}
		m := cubeFor(len(pts))
		got := AntipodalPairs(m, hull)
		want := geom.AntipodalPairs(hull)
		wantSet := map[[2]int]bool{}
		for _, p := range want {
			wantSet[p] = true
		}
		// Every machine pair must be genuinely antipodal...
		for _, p := range got {
			if !wantSet[p] {
				t.Fatalf("trial %d: pair %v not antipodal (hull %v)", trial, p, hull)
			}
		}
		// ...and the diameter must be realised among them (the property
		// Proposition 5.6 needs).
		wantD, _ := geom.Diameter(hull)
		bestG := geom.DistSq(hull[got[0][0]], hull[got[0][1]])
		for _, p := range got[1:] {
			if d := geom.DistSq(hull[p[0]], hull[p[1]]); d.Cmp(bestG) > 0 {
				bestG = d
			}
		}
		if bestG.Cmp(wantD) != 0 {
			t.Fatalf("trial %d: machine antipodal pairs miss the diameter: %v vs %v",
				trial, bestG, wantD)
		}
	}
}

func TestDiameterAndFarthestPair(t *testing.T) {
	r := rand.New(rand.NewSource(87))
	for trial := 0; trial < 25; trial++ {
		pts := fpts(r, 4+r.Intn(30))
		hull := geom.Hull(pts)
		if len(hull) < 3 {
			continue
		}
		m := meshFor(len(pts))
		got, _ := Diameter(m, hull)
		want, _ := geom.Diameter(hull)
		if got.Cmp(want) != 0 {
			t.Fatalf("trial %d: diameter² %v, want %v", trial, got, want)
		}
		// FarthestPair over the raw points.
		hullIdx := make([]int, len(hull))
		for i := range hull {
			hullIdx[i] = hull[i].ID
		}
		a, b, d2 := FarthestPair(m, pts, hullIdx)
		if d2.Cmp(want) != 0 || geom.DistSq(pts[a], pts[b]).Cmp(want) != 0 {
			t.Fatalf("trial %d: farthest pair mismatch", trial)
		}
	}
}

func TestMinAreaRectMatchesSerial(t *testing.T) {
	r := rand.New(rand.NewSource(88))
	for trial := 0; trial < 25; trial++ {
		pts := fpts(r, 4+r.Intn(30))
		hull := geom.Hull(pts)
		if len(hull) < 3 {
			continue
		}
		m := cubeFor(len(pts))
		got := MinAreaRect(m, hull)
		want := geom.MinAreaRect(hull)
		// Areas must agree exactly: both consider one rectangle per edge.
		if got.Area.Cmp(want.Area) != 0 {
			t.Fatalf("trial %d: area %v, want %v (edges %d vs %d)",
				trial, got.Area, want.Area, got.Edge, want.Edge)
		}
	}
}

// TestSteadyMinAreaRect: RatFun instantiation (Corollary 5.9).
func TestSteadyMinAreaRect(t *testing.T) {
	r := rand.New(rand.NewSource(89))
	for trial := 0; trial < 10; trial++ {
		pts := rpts(r, 4+r.Intn(10), 1)
		hull := geom.Hull(pts)
		if len(hull) < 3 {
			continue
		}
		m := cubeFor(len(pts))
		got := MinAreaRect(m, hull)
		want := geom.MinAreaRect(hull)
		if got.Area.Cmp(want.Area) != 0 {
			t.Fatalf("trial %d: steady area mismatch: %v vs %v", trial, got.Area, want.Area)
		}
	}
}

// TestTable4CostShape: all four static algorithms are sort-bounded —
// Θ(√n) mesh (ratio ≈2 per quadrupling) and polylog hypercube.
func TestTable4CostShape(t *testing.T) {
	r := rand.New(rand.NewSource(90))
	sizes := []int{32, 128, 512}
	var hullT, cpT []float64
	for _, n := range sizes {
		pts := fpts(r, n)
		m := meshFor(n)
		if _, err := HullStatic(m, pts); err != nil {
			t.Fatal(err)
		}
		hullT = append(hullT, float64(m.Stats().Time()))
		m2 := meshFor(n)
		ClosestPair(m2, pts)
		cpT = append(cpT, float64(m2.Stats().Time()))
	}
	for i := 1; i < len(sizes); i++ {
		if ratio := hullT[i] / hullT[i-1]; ratio > 3.2 {
			t.Errorf("mesh hull not Θ(√n): %v", hullT)
		}
		if ratio := cpT[i] / cpT[i-1]; ratio > 3.2 {
			t.Errorf("mesh closest pair not Θ(√n): %v", cpT)
		}
	}
}

// TestHullSteadyPointAtReference: verifySteadyHull measures directions
// from o, the centroid of three candidate vertices. A point at o has the
// zero direction, which dirCmp leaves unordered against every direction
// of the lower half; with it and other points around it, the steady hull
// must still verify and equal the exact serial hull.
func TestHullSteadyPointAtReference(t *testing.T) {
	c := func(x, y float64, id int) geom.Point[ratfun.RatFun] {
		return geom.Point[ratfun.RatFun]{X: ratfun.FromFloat(x), Y: ratfun.FromFloat(y), ID: id}
	}
	pts := []geom.Point[ratfun.RatFun]{
		c(0, 0, 0), c(6, 0, 1), c(0, 6, 2), // the hull; its centroid is (2, 2)
		c(2, 2, 3), // at o
		c(1, 1, 4), c(2, 1, 5), c(3, 1, 6), c(1.5, 0.5, 7), c(2.5, 0.5, 8),
		c(1, 2, 9), c(3, 2, 10), c(2, 3, 11), c(2, 2, 12),
	}
	got, err := HullSteady(cubeFor(len(pts)), pts)
	if err != nil {
		t.Fatal(err)
	}
	var want []int
	for _, p := range geom.Hull(pts) {
		want = append(want, p.ID)
	}
	slices.Sort(got)
	slices.Sort(want)
	if !slices.Equal(got, want) {
		t.Fatalf("steady hull vertices %v, want %v", got, want)
	}
}
