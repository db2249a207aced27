package canon

import (
	"encoding/binary"
	"math"
	"testing"

	"dyncg/internal/api"
)

// FuzzCanonicalHash holds Key to its streaming oracle (checkKey) and
// checks the two load-bearing properties of the canonical hash on
// arbitrary systems:
//
//  1. Renormalization invariance — appending trailing zero coefficients
//     to every coefficient array (a different spelling of the same
//     motion) never changes the key.
//  2. Discrimination — changing a coefficient that survives
//     normalization always changes the key (two distinct systems must
//     not collide, or the cache would serve the wrong answer).
//
// The input bytes are decoded as a stream of float64s and grouped into
// points; pad selects how many trailing zeros the renormalized variant
// appends.
func FuzzCanonicalHash(f *testing.F) {
	seed := func(fs ...float64) []byte {
		var b []byte
		for _, v := range fs {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
		return b
	}
	f.Add(seed(0, 1, 10, -1), byte(2))
	f.Add(seed(3, 2, 5, -4, 0.5, 0.25), byte(1))
	f.Add(seed(1e300, 1e-300, -7), byte(3))
	f.Add(seed(0, 0, 0, 0), byte(1))
	f.Add(seed(math.Copysign(0, -1), 1), byte(2))

	f.Fuzz(func(t *testing.T, data []byte, pad byte) {
		n := len(data) / 8
		if n == 0 || n > 256 {
			t.Skip()
		}
		fs := make([]float64, n)
		for i := range fs {
			fs[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
			if math.IsNaN(fs[i]) || math.IsInf(fs[i], 0) {
				// JSON numbers cannot spell NaN or ±Inf; such coefficients
				// never reach the server's decoded request.
				t.Skip()
			}
		}

		// Group the floats into points of one coordinate each, two
		// coefficients per coordinate (a final odd float gets one).
		var sys [][][]float64
		for i := 0; i < n; i += 2 {
			end := i + 2
			if end > n {
				end = n
			}
			sys = append(sys, [][]float64{append([]float64(nil), fs[i:end]...)})
		}
		r1 := &api.Request{V: api.Version, System: sys}
		checkKey(t, "steady-hull", "hypercube", 1, r1)
		k1, ok := Key("steady-hull", "hypercube", 1, r1)
		if !ok {
			t.Fatal("fault-free request reported uncacheable")
		}
		if k2, _ := Key("steady-hull", "hypercube", 1, r1); k2 != k1 {
			t.Fatalf("key not deterministic: %s vs %s", k1, k2)
		}

		// Property 1: trailing zeros are a different spelling, not a
		// different system.
		padded := make([][][]float64, len(sys))
		zeros := make([]float64, int(pad)%4)
		for i, pt := range sys {
			padded[i] = [][]float64{append(append([]float64(nil), pt[0]...), zeros...)}
		}
		kp, _ := Key("steady-hull", "hypercube", 1, &api.Request{V: api.Version, System: padded})
		if kp != k1 {
			t.Errorf("trailing-zero padding changed the key:\n  %s\n  %s", k1, kp)
		}

		// Property 2: a materially different first coefficient must
		// change the key. c0 always survives normalization (trimming is
		// trailing-only), so mutating it yields a distinct system.
		mutated := make([][][]float64, len(sys))
		for i, pt := range sys {
			mutated[i] = [][]float64{append([]float64(nil), pt[0]...)}
		}
		if v := mutated[0][0][0]; v == 0 {
			mutated[0][0][0] = 1
		} else {
			mutated[0][0][0] = v * 2
		}
		km, _ := Key("steady-hull", "hypercube", 1, &api.Request{V: api.Version, System: mutated})
		if km == k1 {
			t.Errorf("distinct systems collided: coefficient %v vs %v",
				sys[0][0][0], mutated[0][0][0])
		}
	})
}
