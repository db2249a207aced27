package pieces

// This file keeps Merge as it was before the window step stopped
// allocating — breakpoints into a fresh slice, a separate Compact pass and
// a sameCurve that recovers from the mixed-family panic — as the oracle
// that Merge and AppendMerge must match bit for bit.

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"dyncg/internal/curve"
	"dyncg/internal/poly"
)

func mergeRef(f, g Piecewise, kind Kind) Piecewise {
	if len(f) == 0 {
		return append(Piecewise(nil), g...)
	}
	if len(g) == 0 {
		return append(Piecewise(nil), f...)
	}
	cuts := breakpointsRef(f, g)
	out := make(Piecewise, 0, len(cuts))
	for i := 0; i+1 < len(cuts); i++ {
		lo, hi := cuts[i], cuts[i+1]
		if !(lo < hi) {
			continue
		}
		t := interior(lo, hi)
		fi, gi := f.find(t), g.find(t)
		var chosen Piece
		switch {
		case fi < 0 && gi < 0:
			continue
		case fi < 0:
			chosen = g[gi]
		case gi < 0:
			chosen = f[fi]
		default:
			chosen = chooseRef(f[fi], g[gi], t, kind)
		}
		out = append(out, Piece{F: chosen.F, ID: chosen.ID, Lo: lo, Hi: hi})
	}
	return compactRef(out)
}

func compactRef(pw Piecewise) Piecewise {
	if len(pw) == 0 {
		return pw
	}
	out := make(Piecewise, 0, len(pw))
	cur := pw[0]
	for _, p := range pw[1:] {
		if p.Lo == cur.Hi && p.ID == cur.ID && sameCurveRef(p.F, cur.F) {
			cur.Hi = p.Hi
			continue
		}
		out = append(out, cur)
		cur = p
	}
	return append(out, cur)
}

func sameCurveRef(a, b curve.Curve) bool {
	defer func() { recover() }() // mixed families are never the same
	_, ident := a.Intersections(b, 0, math.Inf(1))
	return ident
}

func chooseRef(a, b Piece, t float64, kind Kind) Piece {
	if sameCurveRef(a.F, b.F) {
		if b.ID < a.ID {
			return b
		}
		return a
	}
	av, bv := a.F.Eval(t), b.F.Eval(t)
	aWins := av <= bv
	if kind == Max {
		aWins = av >= bv
	}
	if aWins {
		return a
	}
	return b
}

func breakpointsRef(f, g Piecewise) []float64 {
	var cuts []float64
	for _, p := range f {
		cuts = append(cuts, p.Lo, p.Hi)
	}
	for _, p := range g {
		cuts = append(cuts, p.Lo, p.Hi)
	}
	i, j := 0, 0
	for i < len(f) && j < len(g) {
		lo := math.Max(f[i].Lo, g[j].Lo)
		hi := math.Min(f[i].Hi, g[j].Hi)
		if lo < hi {
			times, ident := f[i].F.Intersections(g[j].F, lo, hi)
			if !ident {
				cuts = append(cuts, times...)
			}
		}
		if f[i].Hi < g[j].Hi {
			i++
		} else if g[j].Hi < f[i].Hi {
			j++
		} else {
			i++
			j++
		}
	}
	sort.Float64s(cuts)
	return dedupeCuts(cuts)
}

// Curve families of the generated inputs.
const (
	famPoly = iota
	famAngle
	famMixed // Poly pieces in f, Angle pieces in g: only Compact meets both
)

// randPoly returns a polynomial of degree ≤ maxDeg with small integer or
// Gaussian coefficients.
func randPoly(r *rand.Rand, maxDeg int) poly.Poly {
	c := make([]float64, 1+r.Intn(maxDeg+1))
	for i := range c {
		if r.Intn(2) == 0 {
			c[i] = float64(r.Intn(9) - 4)
		} else {
			c[i] = r.NormFloat64() * 3
		}
	}
	return poly.New(c...)
}

// perturb scales every coefficient by 1 + rel·u, u uniform in [−1, 1]:
// far below cancelEps the difference snaps to zero, so the copy is the
// same curve with different bits.
func perturb(r *rand.Rand, p poly.Poly, rel float64) poly.Poly {
	q := make(poly.Poly, len(p))
	for i, c := range p {
		q[i] = c * (1 + rel*(2*r.Float64()-1))
	}
	return q
}

// randCurve returns a curve of the family: often one already drawn
// (identical), a near-cancelling copy of one, an Angle scaled by ±2
// (parallel, similarly or oppositely oriented), or a fresh one.
func randCurve(r *rand.Rand, fam int, drawn []curve.Curve) curve.Curve {
	if len(drawn) > 0 {
		c := drawn[r.Intn(len(drawn))]
		switch r.Intn(6) {
		case 0:
			return c
		case 1, 2:
			rel := 1e-13
			if r.Intn(3) == 0 {
				rel = 1e-9 // close, but distinct
			}
			switch c := c.(type) {
			case curve.Poly:
				return curve.NewPoly(perturb(r, c.P, rel))
			case curve.Angle:
				return curve.NewAngle(perturb(r, c.DX, rel), perturb(r, c.DY, rel))
			}
		case 3:
			if c, ok := c.(curve.Angle); ok {
				s := []float64{2, -2}[r.Intn(2)]
				return curve.NewAngle(c.DX.Scale(s), c.DY.Scale(s))
			}
		}
	}
	if fam == famAngle {
		return curve.NewAngle(randPoly(r, 2), randPoly(r, 2))
	}
	return curve.NewPoly(randPoly(r, 4))
}

// randPieces returns a valid Piecewise of 0–3 pieces over the family,
// with endpoints on a coarse grid so that f and g often share them.
func randPieces(r *rand.Rand, fam int, drawn *[]curve.Curve) Piecewise {
	var pw Piecewise
	t := float64(r.Intn(3))
	for k := r.Intn(4); k > 0; k-- {
		c := randCurve(r, fam, *drawn)
		*drawn = append(*drawn, c)
		hi := t + []float64{0.5, 1, 2, 0.01 + 3*r.Float64()}[r.Intn(4)]
		if k == 1 && r.Intn(3) == 0 {
			hi = math.Inf(1)
		}
		pw = append(pw, Piece{F: c, ID: r.Intn(3), Lo: t, Hi: hi})
		t = hi
		if r.Intn(3) == 0 {
			t += float64(1 + r.Intn(2))
		}
	}
	return pw
}

// mergeInputs draws f and g for one merge: Poly or Angle pieces, a
// single window's clipped pieces or whole piece strings.
func mergeInputs(r *rand.Rand, fam int) (f, g Piecewise) {
	var drawn []curve.Curve
	ff, gf := fam, fam
	if fam == famMixed {
		ff, gf = famPoly, famAngle
	}
	f = randPieces(r, ff, &drawn)
	if fam == famMixed {
		drawn = nil // Intersections is only defined within a family
	}
	g = randPieces(r, gf, &drawn)
	if fam == famMixed {
		// Keep the supports apart so no pair is intersected: shift g
		// past f.
		end := 0.0
		if len(f) > 0 {
			end = f[len(f)-1].Hi
		}
		if math.IsInf(end, 1) {
			g = nil
		}
		for i := range g {
			g[i].Lo += end
			g[i].Hi += end
		}
	}
	return f, g
}

// sameBits reports whether two piece lists are bit-identical: same IDs,
// same interval bits and deeply equal curves.
func sameBits(a, b Piecewise) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].ID != b[i].ID ||
			math.Float64bits(a[i].Lo) != math.Float64bits(b[i].Lo) ||
			math.Float64bits(a[i].Hi) != math.Float64bits(b[i].Hi) ||
			!reflect.DeepEqual(a[i].F, b[i].F) {
			return false
		}
	}
	return true
}

// checkMerge compares Merge with mergeRef, and AppendMerge after a
// prefix whose last piece abuts the first output piece with the same
// curve and ID: the prefix must be left alone, not extended.
func checkMerge(t *testing.T, f, g Piecewise, kind Kind) {
	t.Helper()
	want := mergeRef(f, g, kind)
	if got := Merge(f, g, kind); !sameBits(got, want) {
		t.Fatalf("Merge(%v, %v, %v)\n got %v\nwant %v", f, g, kind, got, want)
	}
	if len(want) == 0 {
		return
	}
	head := Piece{F: want[0].F, ID: want[0].ID, Lo: want[0].Lo - 1, Hi: want[0].Lo}
	got := AppendMerge(Piecewise{head}, f, g, kind)
	if !sameBits(got[:1], Piecewise{head}) || !sameBits(got[1:], want) {
		t.Fatalf("AppendMerge after %v of (%v, %v, %v)\n got %v\nwant %v", head, f, g, kind, got, want)
	}
}

// FuzzPiecesMerge: Merge and AppendMerge are bit-identical to the
// allocating oracle on random Poly (degree 0–4) and Angle pieces,
// including identical, near-cancelling and parallel curves, and on
// Compact across families.
func FuzzPiecesMerge(f *testing.F) {
	for seed := int64(0); seed < 48; seed++ {
		f.Add(seed, uint8(seed%3), uint8(seed/3%2))
	}
	f.Fuzz(func(t *testing.T, seed int64, fam, kind uint8) {
		r := rand.New(rand.NewSource(seed))
		for trial := 0; trial < 8; trial++ {
			fw, gw := mergeInputs(r, int(fam%3))
			checkMerge(t, fw, gw, Kind(kind%2))
		}
	})
}

// TestCompactMatchesRef: the fused Compact step and the recover-free
// curve.Same agree with the oracle on every family mix, identical and
// near-cancelling neighbours included.
func TestCompactMatchesRef(t *testing.T) {
	r := rand.New(rand.NewSource(29))
	for trial := 0; trial < 400; trial++ {
		f, g := mergeInputs(r, trial%3)
		pw := append(append(Piecewise(nil), f...), g...)
		// Make neighbours abut with equal IDs so Compact has runs to join.
		for i := 1; i < len(pw); i++ {
			if r.Intn(2) == 0 && pw[i].Lo > pw[i-1].Hi {
				pw[i].Lo = pw[i-1].Hi
			}
			if r.Intn(2) == 0 {
				pw[i].ID = pw[i-1].ID
			}
		}
		if got, want := pw.Compact(), compactRef(pw); !sameBits(got, want) {
			t.Fatalf("trial %d: Compact(%v)\n got %v\nwant %v", trial, pw, got, want)
		}
	}
}

// TestAppendMergeWindowAllocFree: merging the two clipped pieces of one
// window into a buffer with room allocates nothing for Poly curves of
// degree ≤ 2 and Angle curves of degree ≤ 1 (whose cross and dot have
// degree ≤ 2).
func TestAppendMergeWindowAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates")
	}
	r := rand.New(rand.NewSource(31))
	dst := make(Piecewise, 0, 64)
	for trial := 0; trial < 40; trial++ {
		var a, b curve.Curve
		if trial%2 == 0 {
			a, b = curve.NewPoly(randPoly(r, 2)), curve.NewPoly(randPoly(r, 2))
		} else {
			a = curve.NewAngle(randPoly(r, 1), randPoly(r, 1))
			b = curve.NewAngle(randPoly(r, 1), randPoly(r, 1))
		}
		if trial%5 == 0 {
			b = a
		}
		fw := Piecewise{{F: a, ID: 0, Lo: 0, Hi: 4}}
		gw := Piecewise{{F: b, ID: 1, Lo: 1, Hi: math.Inf(1)}}
		for kind := Min; kind <= Max; kind++ {
			if n := testing.AllocsPerRun(10, func() { AppendMerge(dst[:0], fw, gw, kind) }); n != 0 {
				t.Fatalf("trial %d: %v allocs merging %v and %v", trial, n, fw, gw)
			}
		}
	}
}
