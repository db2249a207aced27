package penvelope

import (
	"math/rand"
	"testing"

	"dyncg/internal/pieces"
)

// TestEnvelopeAllocsIndependentOfN: once the machine's arena is warm, an
// Envelope over degree ≤ 2 curves allocates only its result, so 16 and
// 256 functions cost the same number of allocations — no merge level and
// no window allocates per piece.
func TestEnvelopeAllocsIndependentOfN(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates")
	}
	r := rand.New(rand.NewSource(23))
	allocs := func(n, deg int) float64 {
		fs := pieces.Totals(randomCurves(r, n, deg))
		m := newCube(CubePEs(n, 2))
		if _, err := Envelope(m, fs, pieces.Min); err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(5, func() {
			if _, err := Envelope(m, fs, pieces.Min); err != nil {
				t.Fatal(err)
			}
		})
	}
	for deg := 0; deg <= 2; deg++ {
		small, large := allocs(16, deg), allocs(256, deg)
		if small != large {
			t.Errorf("degree %d: %v allocs at 16 functions, %v at 256", deg, small, large)
		}
		if small > 1 {
			t.Errorf("degree %d: %v allocs per warm Envelope, want only the result", deg, small)
		}
	}
}
