package core

import (
	"math"
	"math/rand"
	"testing"

	"dyncg/internal/machine"
	"dyncg/internal/motion"
	"dyncg/internal/pieces"
)

// bruteClosestPairD2 returns the squared distance of the closest pair of
// the whole system at time t.
func bruteClosestPairD2(sys *motion.System, t float64, farthest bool) float64 {
	best := math.Inf(1)
	if farthest {
		best = -1
	}
	for i := 0; i < sys.N(); i++ {
		for j := i + 1; j < sys.N(); j++ {
			a, b := sys.Points[i].At(t), sys.Points[j].At(t)
			d := 0.0
			for c := range a {
				d += (a[c] - b[c]) * (a[c] - b[c])
			}
			if (!farthest && d < best) || (farthest && d > best) {
				best = d
			}
		}
	}
	return best
}

// TestSection6ClosestPairSequence validates the §6 extension: the
// chronological closest-pair sequence reports, at every sampled time, a
// pair achieving the true minimum over all n(n−1)/2 pairs.
func TestSection6ClosestPairSequence(t *testing.T) {
	r := rand.New(rand.NewSource(131))
	for trial := 0; trial < 12; trial++ {
		n := 3 + r.Intn(6)
		k := 1 + r.Intn(2)
		d := 1 + r.Intn(3)
		sys := motion.Random(r, n, k, d, 5)
		for _, mk := range []func(int, int) *machine.M{meshFor, cubeFor} {
			m := mk(PairSequencePEs(n, k), 2*k)
			seq, err := ClosestPairSequence(m, sys)
			if err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
			if seq[0].Lo != 0 || !math.IsInf(seq[len(seq)-1].Hi, 1) {
				t.Fatalf("trial %d: pair sequence does not span [0,∞): %v", trial, seq)
			}
			for s := 0; s < 30; s++ {
				tm := float64(s)*0.37 + 0.011
				var ev *PairEvent
				for i := range seq {
					if tm >= seq[i].Lo && tm <= seq[i].Hi {
						ev = &seq[i]
					}
				}
				a, b := sys.Points[ev.A].At(tm), sys.Points[ev.B].At(tm)
				got := 0.0
				for c := range a {
					got += (a[c] - b[c]) * (a[c] - b[c])
				}
				want := bruteClosestPairD2(sys, tm, false)
				if math.Abs(got-want) > 1e-5*(1+want) {
					t.Fatalf("trial %d t=%v: pair (%d,%d) d²=%v, true min %v",
						trial, tm, ev.A, ev.B, got, want)
				}
			}
			// Serial baseline agrees up to benign near-tangency splits
			// (the merge trees associate differently, so a grazing
			// intersection can add a sliver piece in one but not the
			// other; the sampled-minimum check above is the ground
			// truth).
			ser := SerialClosestPairSequence(sys, pieces.Min)
			if len(ser) == 0 || absInt(len(ser)-len(seq)) > len(ser)/3+2 {
				t.Fatalf("trial %d: %d events vs serial %d", trial, len(seq), len(ser))
			}
		}
	}
}

func TestSection6FarthestPairSequence(t *testing.T) {
	r := rand.New(rand.NewSource(132))
	sys := motion.Random(r, 6, 1, 2, 5)
	m := cubeFor(PairSequencePEs(6, 1), 2)
	seq, err := FarthestPairSequence(m, sys)
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < 30; s++ {
		tm := float64(s)*0.41 + 0.013
		var ev *PairEvent
		for i := range seq {
			if tm >= seq[i].Lo && tm <= seq[i].Hi {
				ev = &seq[i]
			}
		}
		a, b := sys.Points[ev.A].At(tm), sys.Points[ev.B].At(tm)
		got := (a[0]-b[0])*(a[0]-b[0]) + (a[1]-b[1])*(a[1]-b[1])
		want := bruteClosestPairD2(sys, tm, true)
		if math.Abs(got-want) > 1e-5*(1+want) {
			t.Fatalf("t=%v: farthest pair d²=%v, true %v", tm, got, want)
		}
	}
	// The last farthest pair must match the steady-state farthest pair's
	// distance (ties possible on indices).
	m2 := cubeOf(8 * sys.N())
	sa, sb, _, err := SteadyFarthestPair(m2, sys)
	if err != nil {
		t.Fatal(err)
	}
	last := seq[len(seq)-1]
	dSeq := sys.Points[last.A].DistSq(sys.Points[last.B])
	dSteady := sys.Points[sa].DistSq(sys.Points[sb])
	if dSeq.CompareAtInfinity(dSteady) != 0 {
		t.Fatalf("transient tail pair (%d,%d) ≠ steady pair (%d,%d)",
			last.A, last.B, sa, sb)
	}
}

func TestPairSequenceTiny(t *testing.T) {
	r := rand.New(rand.NewSource(133))
	if _, err := ClosestPairSequence(cubeOf(4), motion.Random(r, 1, 1, 2, 5)); err == nil {
		t.Fatal("single point accepted")
	}
}

// TestSteadyNearestNeighborD: the d-dimensional steady nearest neighbour
// agrees with evaluation at a late time, for d = 1, 2, 3.
func TestSteadyNearestNeighborD(t *testing.T) {
	r := rand.New(rand.NewSource(134))
	for trial := 0; trial < 20; trial++ {
		n := 3 + r.Intn(10)
		d := 1 + r.Intn(3)
		sys := motion.Random(r, n, 2, d, 5)
		origin := r.Intn(n)
		m := cubeOf(n)
		got, err := SteadyNearestNeighborD(m, sys, origin, false)
		if err != nil {
			t.Fatal(err)
		}
		// Oracle: exact polynomial comparison over all candidates.
		best := -1
		for j := range sys.Points {
			if j == origin {
				continue
			}
			if best < 0 {
				best = j
				continue
			}
			dj := sys.Points[origin].DistSq(sys.Points[j])
			db := sys.Points[origin].DistSq(sys.Points[best])
			if dj.CompareAtInfinity(db) < 0 {
				best = j
			}
		}
		gd := sys.Points[origin].DistSq(sys.Points[got])
		bd := sys.Points[origin].DistSq(sys.Points[best])
		if gd.CompareAtInfinity(bd) != 0 {
			t.Fatalf("trial %d (d=%d): nearest %d, want %d", trial, d, got, best)
		}
		// The planar special case agrees with the RatFun implementation.
		if d == 2 {
			m2 := cubeOf(n)
			got2, err := SteadyNearestNeighbor(m2, sys, origin, false)
			if err != nil {
				t.Fatal(err)
			}
			g2 := sys.Points[origin].DistSq(sys.Points[got2])
			if gd.CompareAtInfinity(g2) != 0 {
				t.Fatalf("trial %d: d-dim and planar disagree: %d vs %d", trial, got, got2)
			}
		}
	}
}

func absInt(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
