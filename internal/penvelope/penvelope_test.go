package penvelope

import (
	"math"
	"math/rand"
	"testing"

	"dyncg/internal/curve"
	"dyncg/internal/dsseq"
	"dyncg/internal/hypercube"
	"dyncg/internal/machine"
	"dyncg/internal/mesh"
	"dyncg/internal/pieces"
	"dyncg/internal/poly"
)

func newMesh(n int) *machine.M { return machine.New(mesh.MustNew(dsseq.NextPow4(n), mesh.Proximity)) }
func newCube(n int) *machine.M { return machine.New(hypercube.MustNew(dsseq.NextPow2(n))) }

func randomCurves(r *rand.Rand, n, deg int) []curve.Curve {
	cs := make([]curve.Curve, n)
	for i := range cs {
		c := make([]float64, deg+1)
		for j := range c {
			c[j] = r.NormFloat64() * 3
		}
		cs[i] = curve.NewPoly(poly.New(c...))
	}
	return cs
}

// samePiecewise compares two piecewise functions structurally (IDs and
// breakpoints) up to tolerance.
func samePiecewise(t *testing.T, got, want pieces.Piecewise, label string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d pieces, want %d\n got: %v\nwant: %v",
			label, len(got), len(want), got, want)
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.ID != w.ID {
			t.Fatalf("%s: piece %d ID %d, want %d", label, i, g.ID, w.ID)
		}
		tol := 1e-6 * (1 + math.Abs(w.Lo))
		if math.Abs(g.Lo-w.Lo) > tol {
			t.Fatalf("%s: piece %d Lo %v, want %v", label, i, g.Lo, w.Lo)
		}
		if math.IsInf(w.Hi, 1) != math.IsInf(g.Hi, 1) {
			t.Fatalf("%s: piece %d Hi %v, want %v", label, i, g.Hi, w.Hi)
		}
		if !math.IsInf(w.Hi, 1) && math.Abs(g.Hi-w.Hi) > 1e-6*(1+math.Abs(w.Hi)) {
			t.Fatalf("%s: piece %d Hi %v, want %v", label, i, g.Hi, w.Hi)
		}
	}
}

// TestMatchesSerialProperty: the parallel construction agrees with the
// serial reference on random polynomial families, on both topologies.
func TestMatchesSerialProperty(t *testing.T) {
	r := rand.New(rand.NewSource(51))
	for trial := 0; trial < 60; trial++ {
		n := 1 + r.Intn(12)
		deg := 1 + r.Intn(3)
		cs := randomCurves(r, n, deg)
		want := pieces.EnvelopeOfCurves(cs, pieces.Min)

		for _, m := range []*machine.M{newMesh(MeshPEs(n, deg)), newCube(CubePEs(n, deg))} {
			got, err := EnvelopeOfCurves(m, cs, pieces.Min)
			if err != nil {
				t.Fatalf("trial %d on %s: %v", trial, m.Topology().Name(), err)
			}
			samePiecewise(t, got, want, m.Topology().Name())
		}
	}
}

func TestMaxEnvelope(t *testing.T) {
	cs := []curve.Curve{
		curve.NewPoly(poly.New(0, 1)),
		curve.NewPoly(poly.New(4, -1)),
	}
	want := pieces.EnvelopeOfCurves(cs, pieces.Max)
	m := newCube(8)
	got, err := EnvelopeOfCurves(m, cs, pieces.Max)
	if err != nil {
		t.Fatal(err)
	}
	samePiecewise(t, got, want, "max")
}

func TestExtremalFamilies(t *testing.T) {
	// The parallel envelope must attain the λ bounds on the extremal
	// inputs of Lemma 2.2, like the serial one.
	for _, n := range []int{4, 8, 16} {
		ps := dsseq.ExtremalParabolas(n)
		cs := make([]curve.Curve, n)
		for i, p := range ps {
			cs[i] = curve.NewPoly(p)
		}
		m := newMesh(MeshPEs(n, 2))
		got, err := EnvelopeOfCurves(m, cs, pieces.Min)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 2*n-1 {
			t.Fatalf("n=%d: %d pieces, want 2n−1=%d", n, len(got), 2*n-1)
		}
		if !dsseq.IsDSSequence(got.IDs(), n, 2) {
			t.Fatalf("n=%d: piece order %v not a DS-sequence", n, got.IDs())
		}
	}
}

// TestPartialFunctions exercises Theorem 3.4: envelopes of functions
// defined only on sub-intervals (transitions), with gaps in the result.
func TestPartialFunctions(t *testing.T) {
	r := rand.New(rand.NewSource(52))
	for trial := 0; trial < 40; trial++ {
		n := 1 + r.Intn(6)
		fs := make([]pieces.Piecewise, n)
		for i := range fs {
			c := curve.NewPoly(poly.New(r.NormFloat64()*3, r.NormFloat64()))
			// 1–2 random domain intervals.
			a := r.Float64() * 3
			b := a + 0.5 + r.Float64()*2
			ivs := [][2]float64{{a, b}}
			if r.Intn(2) == 0 {
				c2 := b + 0.5 + r.Float64()
				hi := c2 + 1 + r.Float64()
				ivs = append(ivs, [2]float64{c2, hi})
			}
			fs[i] = pieces.OnIntervals(c, i, ivs)
		}
		want := pieces.Envelope(fs, pieces.Min)
		m := newCube(CubePEs(n, 3))
		got, err := Envelope(m, fs, pieces.Min)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		samePiecewise(t, got, want, "partial")
		// Sample agreement including gaps.
		for s := 0; s < 50; s++ {
			tm := float64(s) * 0.17
			gv, gok := got.Eval(tm)
			wv, wok := want.Eval(tm)
			if gok != wok || (gok && math.Abs(gv-wv) > 1e-6) {
				t.Fatalf("trial %d: eval mismatch at %v: (%v,%v) vs (%v,%v)",
					trial, tm, gv, gok, wv, wok)
			}
		}
	}
}

func TestSingleFunction(t *testing.T) {
	m := newCube(4)
	cs := []curve.Curve{curve.NewPoly(poly.New(1, 2, 3))}
	got, err := EnvelopeOfCurves(m, cs, pieces.Min)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].ID != 0 {
		t.Fatalf("single-function envelope = %v", got)
	}
}

func TestEmptyInput(t *testing.T) {
	m := newCube(4)
	got, err := Envelope(m, nil, pieces.Min)
	if err != nil || got != nil {
		t.Fatalf("empty input: %v, %v", got, err)
	}
}

// TestEnvelopeEmptyAndSparseSlots: a slot array whose functions are all
// empty has an empty envelope, and one occupied slot among empty ones is
// its own envelope, with its slot's ID — the layouts of a session whose
// free leaf slots are nil.
func TestEnvelopeEmptyAndSparseSlots(t *testing.T) {
	m := newCube(64)
	fs := make([]pieces.Piecewise, 8)
	got, err := Envelope(m, fs, pieces.Min)
	if err != nil || len(got) != 0 {
		t.Fatalf("all-empty slots: %v, %v", got, err)
	}
	fs[3] = pieces.Total(curve.NewPoly(poly.New(1, 2)), 3)
	got, err = Envelope(m, fs, pieces.Min)
	if err != nil || len(got) != 1 || got[0].ID != 3 {
		t.Fatalf("one occupied slot: %v, %v", got, err)
	}
}

func TestTooSmallMachine(t *testing.T) {
	m := newCube(2)
	_, err := EnvelopeOfCurves(m, randomCurves(rand.New(rand.NewSource(1)), 8, 1), pieces.Min)
	if err == nil {
		t.Fatal("expected capacity error")
	}
}

// TestTheorem32CostShape: envelope construction time grows like
// Θ(√N) on the mesh and Θ(log² n) on the hypercube (Theorem 3.2),
// asserted by ratio tests across quadruplings.
func TestTheorem32CostShape(t *testing.T) {
	r := rand.New(rand.NewSource(53))
	sizes := []int{16, 64, 256, 1024}
	meshT := make([]float64, len(sizes))
	cubeT := make([]float64, len(sizes))
	for si, n := range sizes {
		cs := randomCurves(r, n, 2)
		mm := newMesh(MeshPEs(n, 2))
		if _, err := EnvelopeOfCurves(mm, cs, pieces.Min); err != nil {
			t.Fatal(err)
		}
		meshT[si] = float64(mm.Stats().Time())
		hc := newCube(CubePEs(n, 2))
		if _, err := EnvelopeOfCurves(hc, cs, pieces.Min); err != nil {
			t.Fatal(err)
		}
		cubeT[si] = float64(hc.Stats().Time())
	}
	for i := 1; i < len(sizes); i++ {
		ratio := meshT[i] / meshT[i-1]
		if ratio > 3.2 {
			t.Errorf("mesh envelope not Θ(√λ): %d→%d grew %.2f× (>2 expected ≈2)",
				sizes[i-1], sizes[i], ratio)
		}
		l0, l1 := math.Log2(float64(sizes[i-1])), math.Log2(float64(sizes[i]))
		cratio := cubeT[i] / cubeT[i-1]
		if cratio > 1.6*(l1*l1)/(l0*l0) {
			t.Errorf("hypercube envelope not Θ(log²): %d→%d grew %.2f×",
				sizes[i-1], sizes[i], cratio)
		}
	}
}
