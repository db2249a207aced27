package core

import (
	"math"
	"math/rand"
	"testing"

	"dyncg/internal/curve"
	"dyncg/internal/dsseq"
	"dyncg/internal/geom"
	"dyncg/internal/hypercube"
	"dyncg/internal/machine"
	"dyncg/internal/motion"
	"dyncg/internal/pieces"
	"dyncg/internal/poly"
)

// sampleTimes returns a time grid avoiding the exact breakpoints of the
// result under test (membership flips exactly at breakpoints).
func sampleTimes(n int, step float64) []float64 {
	ts := make([]float64, n)
	for i := range ts {
		ts[i] = float64(i)*step + 0.0137
	}
	return ts
}

func bruteClosest(sys *motion.System, origin int, t float64, farthest bool) float64 {
	best := math.Inf(1)
	if farthest {
		best = -1
	}
	p0 := sys.Points[origin].At(t)
	for j, q := range sys.Points {
		if j == origin {
			continue
		}
		pos := q.At(t)
		d := 0.0
		for c := range pos {
			d += (pos[c] - p0[c]) * (pos[c] - p0[c])
		}
		if (!farthest && d < best) || (farthest && d > best) {
			best = d
		}
	}
	return best
}

// TestTheorem41ClosestSequence: the machine sequence R reports, at every
// sampled time, a point achieving the true minimum distance; and it
// matches the serial baseline structurally.
func TestTheorem41ClosestSequence(t *testing.T) {
	r := rand.New(rand.NewSource(101))
	for trial := 0; trial < 20; trial++ {
		n := 3 + r.Intn(10)
		k := 1 + r.Intn(2)
		d := 1 + r.Intn(3)
		sys := motion.Random(r, n, k, d, 5)
		origin := r.Intn(n)
		for _, m := range []*machine.M{meshFor(n, 2*k), cubeFor(n, 2*k)} {
			seq, err := ClosestPointSequence(m, sys, origin)
			if err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
			if seq[0].Lo != 0 || !math.IsInf(seq[len(seq)-1].Hi, 1) {
				t.Fatalf("trial %d: sequence does not span [0,∞): %v", trial, seq)
			}
			for _, tm := range sampleTimes(40, 0.33) {
				var ev *NeighborEvent
				for i := range seq {
					if tm >= seq[i].Lo && tm <= seq[i].Hi {
						ev = &seq[i]
						break
					}
				}
				if ev == nil {
					t.Fatalf("trial %d: no event covers t=%v", trial, tm)
				}
				p0 := sys.Points[origin].At(tm)
				pj := sys.Points[ev.Point].At(tm)
				got := 0.0
				for c := range p0 {
					got += (pj[c] - p0[c]) * (pj[c] - p0[c])
				}
				want := bruteClosest(sys, origin, tm, false)
				if math.Abs(got-want) > 1e-5*(1+want) {
					t.Fatalf("trial %d t=%v: event point %d at d²=%v, true min %v",
						trial, tm, ev.Point, got, want)
				}
			}
			// Serial baseline agrees.
			ser := SerialClosestPointSequence(sys, origin, pieces.Min)
			if len(ser) != len(seq) {
				t.Fatalf("trial %d: parallel %d events, serial %d", trial, len(seq), len(ser))
			}
			for i := range ser {
				if ser[i].Point != seq[i].Point {
					t.Fatalf("trial %d: event %d: %d vs %d", trial, i, seq[i].Point, ser[i].Point)
				}
			}
		}
	}
}

func TestTheorem41FarthestSequence(t *testing.T) {
	r := rand.New(rand.NewSource(102))
	sys := motion.Random(r, 8, 1, 2, 5)
	m := cubeFor(8, 2)
	seq, err := FarthestPointSequence(m, sys, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, tm := range sampleTimes(30, 0.4) {
		var ev *NeighborEvent
		for i := range seq {
			if tm >= seq[i].Lo && tm <= seq[i].Hi {
				ev = &seq[i]
			}
		}
		p0 := sys.Points[0].At(tm)
		pj := sys.Points[ev.Point].At(tm)
		got := (pj[0]-p0[0])*(pj[0]-p0[0]) + (pj[1]-p0[1])*(pj[1]-p0[1])
		want := bruteClosest(sys, 0, tm, true)
		if math.Abs(got-want) > 1e-5*(1+want) {
			t.Fatalf("t=%v: farthest %d at %v, true %v", tm, ev.Point, got, want)
		}
	}
}

// TestTheorem42Collisions: collision times are exactly the roots of the
// pairwise distance functions, chronologically sorted, and match the
// serial baseline.
func TestTheorem42Collisions(t *testing.T) {
	r := rand.New(rand.NewSource(103))
	for trial := 0; trial < 15; trial++ {
		n := 3 + r.Intn(8)
		sys := motion.Converging(r, n)
		origin := r.Intn(n)
		want := SerialCollisionTimes(sys, origin)
		for _, m := range []*machine.M{meshOf(8 * n), cubeOf(8 * n)} {
			got, err := CollisionTimes(m, sys, origin)
			if err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
			if len(got) != len(want) {
				t.Fatalf("trial %d: %d collisions, want %d", trial, len(got), len(want))
			}
			for i := range got {
				if got[i].B != want[i].B || math.Abs(got[i].T-want[i].T) > 1e-9 {
					t.Fatalf("trial %d: collision %d = %+v, want %+v", trial, i, got[i], want[i])
				}
				if i > 0 && got[i].T < got[i-1].T {
					t.Fatalf("trial %d: collisions unsorted", trial)
				}
			}
			// Each reported collision is genuine.
			for _, c := range got {
				a := sys.Points[c.A].At(c.T)
				b := sys.Points[c.B].At(c.T)
				if math.Hypot(a[0]-b[0], a[1]-b[1]) > 1e-5 {
					t.Fatalf("trial %d: phantom collision %+v", trial, c)
				}
			}
		}
	}
}

func TestCollisionsNoneForDiverging(t *testing.T) {
	// Points spreading out on distinct rays from distinct starts rarely
	// collide; verify agreement with the serial oracle rather than zero.
	r := rand.New(rand.NewSource(104))
	sys := motion.Diverging(r, 6)
	m := cubeOf(64)
	got, err := CollisionTimes(m, sys, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := SerialCollisionTimes(sys, 0)
	if len(got) != len(want) {
		t.Fatalf("%d collisions, want %d", len(got), len(want))
	}
}

// TestTheorem46Containment: interval list matches brute-force sampling of
// "does the bounding box fit in dims".
func TestTheorem46Containment(t *testing.T) {
	r := rand.New(rand.NewSource(105))
	for trial := 0; trial < 12; trial++ {
		n := 3 + r.Intn(8)
		k := 1 + r.Intn(2)
		d := 1 + r.Intn(3)
		sys := motion.Random(r, n, k, d, 4)
		dims := make([]float64, d)
		for i := range dims {
			dims[i] = 2 + r.Float64()*6
		}
		m := meshFor(n, 2*k+2)
		ivs, err := ContainmentIntervals(m, sys, dims)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for _, tm := range sampleTimes(60, 0.23) {
			fits := true
			for c := 0; c < d && fits; c++ {
				lo, hi := math.Inf(1), math.Inf(-1)
				for _, p := range sys.Points {
					v := p.Coord[c].Eval(tm)
					lo = math.Min(lo, v)
					hi = math.Max(hi, v)
				}
				if hi-lo > dims[c]+1e-9 {
					fits = false
				}
			}
			inIv := false
			for _, iv := range ivs {
				if tm >= iv.Lo-1e-9 && tm <= iv.Hi+1e-9 {
					inIv = true
				}
			}
			if fits != inIv {
				t.Fatalf("trial %d t=%v: fits=%v but intervals say %v (ivs=%v)",
					trial, tm, fits, inIv, ivs)
			}
		}
	}
}

// TestTheorem47SmallestHypercubeEdge: D(t) equals the brute-force max
// coordinate span at sampled times.
func TestTheorem47SmallestHypercubeEdge(t *testing.T) {
	r := rand.New(rand.NewSource(106))
	for trial := 0; trial < 12; trial++ {
		n := 3 + r.Intn(8)
		k := 1 + r.Intn(2)
		d := 2 + r.Intn(2)
		sys := motion.Random(r, n, k, d, 4)
		m := cubeFor(n, 2*k+2)
		dfn, err := SmallestHypercubeEdge(m, sys)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for _, tm := range sampleTimes(50, 0.29) {
			want := 0.0
			for c := 0; c < d; c++ {
				lo, hi := math.Inf(1), math.Inf(-1)
				for _, p := range sys.Points {
					v := p.Coord[c].Eval(tm)
					lo = math.Min(lo, v)
					hi = math.Max(hi, v)
				}
				want = math.Max(want, hi-lo)
			}
			got, ok := dfn.Eval(tm)
			if !ok {
				t.Fatalf("trial %d: D undefined at %v", trial, tm)
			}
			if math.Abs(got-want) > 1e-5*(1+want) {
				t.Fatalf("trial %d t=%v: D=%v, want %v", trial, tm, got, want)
			}
		}
	}
}

// TestCorollary48SmallestEver: D_min matches a dense brute-force sweep.
func TestCorollary48SmallestEver(t *testing.T) {
	r := rand.New(rand.NewSource(107))
	for trial := 0; trial < 10; trial++ {
		n := 3 + r.Intn(6)
		sys := motion.Random(r, n, 1, 2, 4)
		m := meshFor(n, 4)
		dmin, tmin, err := SmallestEverHypercube(m, sys)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		span := func(tm float64) float64 {
			w := 0.0
			for c := 0; c < 2; c++ {
				lo, hi := math.Inf(1), math.Inf(-1)
				for _, p := range sys.Points {
					v := p.Coord[c].Eval(tm)
					lo = math.Min(lo, v)
					hi = math.Max(hi, v)
				}
				w = math.Max(w, hi-lo)
			}
			return w
		}
		if math.Abs(span(tmin)-dmin) > 1e-6*(1+dmin) {
			t.Fatalf("trial %d: D(tmin)=%v ≠ dmin=%v", trial, span(tmin), dmin)
		}
		for tm := 0.0; tm < 30; tm += 0.05 {
			if span(tm) < dmin-1e-6*(1+dmin) {
				t.Fatalf("trial %d: D(%v)=%v < reported min %v", trial, tm, span(tm), dmin)
			}
		}
	}
}

// TestMinimizeEdgeNeverNaN backs the associativity of MinimizeEdge's
// semigroup op (a.v <= b.v keeps the leftmost minimum — associative on
// any totally ordered v, but not once a NaN takes part). minimizePiece
// starts from Eval(Lo) and only replaces it by a strictly smaller value,
// so v is NaN only if Eval(Lo) is; with finite coefficients and a finite
// Lo, Horner evaluation overflows to ±Inf at worst and never yields NaN.
// The test drives pieces with an unbounded last piece (Hi = +Inf, where
// the probe moves to Lo + 1e6), leading coefficients of both signs, and
// coefficients near the top of the float64 range.
func TestMinimizeEdgeNeverNaN(t *testing.T) {
	r := rand.New(rand.NewSource(109))
	for trial := 0; trial < 200; trial++ {
		n := 1 + r.Intn(6)
		d := make(pieces.Piecewise, n)
		lo := 0.0
		for i := range d {
			coef := make(poly.Poly, 1+r.Intn(5))
			for k := range coef {
				coef[k] = r.NormFloat64() * math.Pow(10, float64(r.Intn(9)))
				if r.Intn(20) == 0 {
					coef[k] = math.Copysign(math.MaxFloat64/4, coef[k])
				}
			}
			hi := lo + 0.1 + 10*r.Float64()
			if i == n-1 {
				hi = math.Inf(1)
			}
			d[i] = pieces.Piece{F: curve.Poly{P: coef}, ID: i, Lo: lo, Hi: hi}
			lo = hi
		}
		want, wantT := math.Inf(1), 0.0
		for i, p := range d {
			v, tm := minimizePiece(p)
			if math.IsNaN(v) {
				t.Fatalf("trial %d: piece %d (%v on [%v, %v]) minimises to NaN", trial, i, p.F, p.Lo, p.Hi)
			}
			if i == 0 || v < want {
				want, wantT = v, tm
			}
		}
		m := machine.New(hypercube.MustNew(dsseq.NextPow2(n)))
		got, gotT, err := MinimizeEdge(m, d)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if got != want || gotT != wantT {
			t.Fatalf("trial %d: MinimizeEdge = (%v, %v), leftmost serial minimum (%v, %v)", trial, got, gotT, want, wantT)
		}
	}
}

// TestTheorem45HullMembership: the membership intervals agree with
// hull membership computed by static geometry at sampled times.
func TestTheorem45HullMembership(t *testing.T) {
	r := rand.New(rand.NewSource(108))
	for trial := 0; trial < 15; trial++ {
		n := 3 + r.Intn(7)
		k := 1 + r.Intn(2)
		sys := motion.Random(r, n, k, 2, 4)
		origin := r.Intn(n)
		for _, m := range []*machine.M{meshFor(n, 4*k+2), cubeFor(n, 4*k+2)} {
			ivs, err := HullVertexIntervals(m, sys, origin)
			if err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
			for _, tm := range sampleTimes(45, 0.31) {
				pts := StaticPointsAt(sys, tm)
				hull := geom.Hull(pts)
				isExtreme := false
				for _, p := range hull {
					if p.ID == origin {
						isExtreme = true
					}
				}
				inIv := false
				for _, iv := range ivs {
					if tm >= iv.Lo-1e-7 && tm <= iv.Hi+1e-7 {
						inIv = true
					}
				}
				if isExtreme != inIv {
					t.Fatalf("trial %d (n=%d k=%d origin=%d) t=%v: extreme=%v intervals=%v\nivs=%v",
						trial, n, k, origin, tm, isExtreme, inIv, ivs)
				}
			}
		}
	}
}

// TestHullMembershipTinySystems: n ≤ 2 is always extreme.
func TestHullMembershipTinySystems(t *testing.T) {
	r := rand.New(rand.NewSource(109))
	sys := motion.Random(r, 2, 1, 2, 3)
	m := cubeFor(2, 4)
	ivs, err := HullVertexIntervals(m, sys, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(ivs) != 1 || ivs[0].Lo != 0 || !math.IsInf(ivs[0].Hi, 1) {
		t.Fatalf("intervals = %v, want [0,∞)", ivs)
	}
}
