package penvelope

import (
	"math"
	"math/rand"
	"testing"

	"dyncg/internal/curve"
	"dyncg/internal/pieces"
	"dyncg/internal/poly"
)

func randPiecewise(r *rand.Rand, id int) pieces.Piecewise {
	c := curve.NewPoly(poly.New(r.NormFloat64()*4, r.NormFloat64()))
	a := r.Float64() * 2
	b := a + 0.5 + r.Float64()*3
	ivs := [][2]float64{{a, b}}
	if r.Intn(2) == 0 {
		c2 := b + 0.3 + r.Float64()
		ivs = append(ivs, [2]float64{c2, c2 + 1 + r.Float64()*2})
	}
	return pieces.OnIntervals(c, id, ivs)
}

// TestCombine2MatchesSerialWindows: the machine Combine2 pass and the
// serial CombineWindows reference produce identical results for the min
// combiner over random partial functions.
func TestCombine2MatchesSerialWindows(t *testing.T) {
	r := rand.New(rand.NewSource(71))
	window := func(dst, fw, gw pieces.Piecewise) pieces.Piecewise {
		return pieces.AppendMerge(dst, fw, gw, pieces.Min)
	}
	for trial := 0; trial < 80; trial++ {
		f := randPiecewise(r, 0)
		g := randPiecewise(r, 1)
		want := pieces.CombineWindows(f, g, window)
		m := newCube(64)
		got, err := Combine2(m, f, g, window)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d pieces vs serial %d\n got %v\nwant %v",
				trial, len(got), len(want), got, want)
		}
		for i := range got {
			if got[i].ID != want[i].ID ||
				math.Abs(got[i].Lo-want[i].Lo) > 1e-9 ||
				(!math.IsInf(want[i].Hi, 1) && math.Abs(got[i].Hi-want[i].Hi) > 1e-9) {
				t.Fatalf("trial %d piece %d: %v vs %v", trial, i, got[i], want[i])
			}
		}
	}
}

// TestMapPiecesBasics: a transform splitting every piece in half, with
// distinct IDs so nothing recombines.
func TestMapPiecesBasics(t *testing.T) {
	f := pieces.Piecewise{
		{F: curve.Const(1), ID: 0, Lo: 0, Hi: 2},
		{F: curve.Const(2), ID: 1, Lo: 2, Hi: 6},
	}
	m := newCube(16)
	got, err := MapPieces(m, f, func(p pieces.Piece) []pieces.Piece {
		mid := (p.Lo + p.Hi) / 2
		a, b := p, p
		a.Hi = mid
		b.Lo = mid
		b.ID = p.ID + 100 // distinct so Compact keeps the split
		return []pieces.Piece{a, b}
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 {
		t.Fatalf("MapPieces produced %v", got)
	}
	if got[0].Hi != 1 || got[2].Hi != 4 {
		t.Fatalf("split points wrong: %v", got)
	}
}

func TestMapPiecesCompactsRuns(t *testing.T) {
	f := pieces.Piecewise{
		{F: curve.Const(1), ID: 7, Lo: 0, Hi: 2},
		{F: curve.Const(1), ID: 7, Lo: 2, Hi: 5},
	}
	m := newCube(8)
	got, err := MapPieces(m, f, func(p pieces.Piece) []pieces.Piece {
		return []pieces.Piece{p}
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Lo != 0 || got[0].Hi != 5 {
		t.Fatalf("runs not compacted: %v", got)
	}
}

func TestCombine2Capacity(t *testing.T) {
	m := newCube(4)
	big := make(pieces.Piecewise, 5)
	for i := range big {
		big[i] = pieces.Piece{F: curve.Const(1), ID: i, Lo: float64(i), Hi: float64(i) + 1}
	}
	if _, err := Combine2(m, big, nil, nil); err == nil {
		t.Fatal("oversized input accepted")
	}
}
