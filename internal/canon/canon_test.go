package canon

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"math"
	"math/rand"
	"testing"

	"dyncg/internal/algo"
	"dyncg/internal/api"
	"dyncg/internal/poly"
)

func req(system [][][]float64, mod func(*api.Request)) *api.Request {
	r := &api.Request{V: api.Version, System: system}
	if mod != nil {
		mod(r)
	}
	return r
}

func mustKey(t *testing.T, alg, topo string, workers int, r *api.Request) string {
	t.Helper()
	k, ok := Key(alg, topo, workers, r)
	if !ok {
		t.Fatalf("Key reported uncacheable for a fault-free request")
	}
	if len(k) != 64 {
		t.Fatalf("Key length = %d, want 64 hex chars", len(k))
	}
	return k
}

// TestKeyTrailingZeroInvariance: appending trailing zero (or negligible)
// coefficients never changes the key — poly.New strips them before the
// algorithms ever see them, so the responses are identical too.
func TestKeyTrailingZeroInvariance(t *testing.T) {
	base := [][][]float64{
		{{0, 1}, {0}},
		{{10, -1}, {1}},
		{{3, 2, 5}, {-4}},
	}
	padded := [][][]float64{
		{{0, 1, 0, 0}, {0, 0, 0}},
		{{10, -1, 0}, {1, 0}},
		{{3, 2, 5, 0, 0, 0}, {-4, 0}},
	}
	negligible := [][][]float64{
		{{0, 1, 1e-30}, {0}},
		{{10, -1}, {1, 1e-25}},
		{{3, 2, 5, 1e-20}, {-4}},
	}
	a := mustKey(t, "steady-hull", "hypercube", 1, req(base, nil))
	b := mustKey(t, "steady-hull", "hypercube", 1, req(padded, nil))
	c := mustKey(t, "steady-hull", "hypercube", 1, req(negligible, nil))
	if a != b {
		t.Errorf("trailing zeros changed the key:\n  %s\n  %s", a, b)
	}
	if a != c {
		t.Errorf("negligible trailing coefficients changed the key:\n  %s\n  %s", a, c)
	}
}

// TestKeyJSONSpellingInvariance: two JSON spellings of the same request —
// reordered fields, whitespace, exponent notation — decode to hash-equal
// requests. The key is computed post-decode, so the wire spelling is
// irrelevant by construction; this pins that property at the JSON level.
func TestKeyJSONSpellingInvariance(t *testing.T) {
	spellings := []string{
		`{"v":1,"system":[[[0,1],[0]],[[10,-1],[1]]],"origin":1,"options":{"topology":"mesh","workers":2}}`,
		`{
		  "options": {"workers": 2, "topology": "mesh"},
		  "origin": 1,
		  "system": [ [ [0.0, 1.0], [0e0] ], [ [1e1, -1], [1.000] ] ],
		  "v": 1
		}`,
	}
	keys := make([]string, len(spellings))
	for i, s := range spellings {
		var r api.Request
		if err := json.Unmarshal([]byte(s), &r); err != nil {
			t.Fatalf("spelling %d: %v", i, err)
		}
		keys[i] = mustKey(t, "closest-point-sequence", "mesh", 2, &r)
	}
	if keys[0] != keys[1] {
		t.Errorf("JSON spelling changed the key:\n  %s\n  %s", keys[0], keys[1])
	}
}

// TestKeyDiscriminates: every field that can steer the response must
// steer the key.
func TestKeyDiscriminates(t *testing.T) {
	base := [][][]float64{{{0, 1}, {0}}, {{10, -1}, {1}}}
	ref := mustKey(t, "steady-hull", "hypercube", 1, req(base, nil))
	variants := map[string]string{
		"algorithm": mustKey(t, "steady-closest-pair", "hypercube", 1, req(base, nil)),
		"topology":  mustKey(t, "steady-hull", "mesh", 1, req(base, nil)),
		"workers":   mustKey(t, "steady-hull", "hypercube", 4, req(base, nil)),
		"origin": mustKey(t, "steady-hull", "hypercube", 1,
			req(base, func(r *api.Request) { r.Origin = 1 })),
		"farthest": mustKey(t, "steady-hull", "hypercube", 1,
			req(base, func(r *api.Request) { r.Farthest = true })),
		"dims": mustKey(t, "steady-hull", "hypercube", 1,
			req(base, func(r *api.Request) { r.Dims = []float64{4, 4} })),
		"pes": mustKey(t, "steady-hull", "hypercube", 1,
			req(base, func(r *api.Request) { r.Options.PEs = 64 })),
		"trace": mustKey(t, "steady-hull", "hypercube", 1,
			req(base, func(r *api.Request) { r.Options.Trace = true })),
		"cost_depth": mustKey(t, "steady-hull", "hypercube", 1,
			req(base, func(r *api.Request) { r.Options.CostDepth = 2 })),
		"deadline_ms": mustKey(t, "steady-hull", "hypercube", 1,
			req(base, func(r *api.Request) { r.Options.DeadlineMs = 5000 })),
		"coefficient": mustKey(t, "steady-hull", "hypercube", 1,
			req([][][]float64{{{0, 2}, {0}}, {{10, -1}, {1}}}, nil)),
		"point order": mustKey(t, "steady-hull", "hypercube", 1,
			req([][][]float64{{{10, -1}, {1}}, {{0, 1}, {0}}}, nil)),
		"extra point": mustKey(t, "steady-hull", "hypercube", 1,
			req(append(append([][][]float64{}, base...), [][]float64{{5}, {5}}), nil)),
	}
	for field, k := range variants {
		if k == ref {
			t.Errorf("changing %s did not change the key", field)
		}
	}
}

// TestKeyNegativeZero: -0.0 and +0.0 print differently in rational
// functions, so they must not be merged by the cache.
func TestKeyNegativeZero(t *testing.T) {
	negZero := math.Copysign(0, -1)
	a := mustKey(t, "steady-min-area-rect", "hypercube", 1,
		req([][][]float64{{{0, 1}, {0}}, {{1, negZero, 3}, {1}}}, nil))
	b := mustKey(t, "steady-min-area-rect", "hypercube", 1,
		req([][][]float64{{{0, 1}, {0}}, {{1, 0, 3}, {1}}}, nil))
	if a == b {
		t.Error("-0.0 and +0.0 coefficients hashed equal")
	}
}

// TestKeyStructuralAmbiguity: flattening must not let different shapes
// collide — [2 points × 1 coord] vs [1 point × 2 coords] with the same
// flat coefficient stream.
func TestKeyStructuralAmbiguity(t *testing.T) {
	a := mustKey(t, "collision-times", "hypercube", 1,
		req([][][]float64{{{1, 2}}, {{3, 4}}}, nil))
	b := mustKey(t, "collision-times", "hypercube", 1,
		req([][][]float64{{{1, 2}, {3, 4}}}, nil))
	if a == b {
		t.Error("different system shapes hashed equal")
	}
}

// TestKeyFaultsUncacheable: fault-injected requests must be reported
// uncacheable — their responses depend on the injected schedule.
func TestKeyFaultsUncacheable(t *testing.T) {
	r := req([][][]float64{{{0, 1}, {0}}}, func(r *api.Request) {
		r.Options.Faults = "transient=0.05"
	})
	if _, ok := Key("steady-hull", "hypercube", 1, r); ok {
		t.Error("fault-injected request reported cacheable")
	}
}

// TestKeyDeterministic: the same request hashes identically across
// repeated computations and across value copies.
func TestKeyDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		sys := make([][][]float64, 2+rng.Intn(6))
		for i := range sys {
			sys[i] = make([][]float64, 1+rng.Intn(3))
			for j := range sys[i] {
				cf := make([]float64, 1+rng.Intn(4))
				for k := range cf {
					cf[k] = math.Trunc(rng.NormFloat64() * 100)
				}
				sys[i][j] = cf
			}
		}
		r1 := req(sys, nil)
		k1 := mustKey(t, "steady-hull", "mesh", 1, r1)
		// Deep copy.
		cp := make([][][]float64, len(sys))
		for i := range sys {
			cp[i] = make([][]float64, len(sys[i]))
			for j := range sys[i] {
				cp[i][j] = append([]float64(nil), sys[i][j]...)
			}
		}
		k2 := mustKey(t, "steady-hull", "mesh", 1, req(cp, nil))
		if k1 != k2 {
			t.Fatalf("trial %d: identical requests hashed differently", trial)
		}
	}
}

// keyRef is Key as a streaming hash over poly.New's normalized copies:
// the encoding the one-buffer Key must reproduce bit for bit.
func keyRef(algorithm, topology string, workers int, req *api.Request) (string, bool) {
	if req.Options.Faults != "" {
		return "", false
	}
	h := sha256.New()
	var buf []byte
	put := func(b []byte) { h.Write(b) }
	str := func(s string) { put(binary.AppendUvarint(buf[:0], uint64(len(s)))); put([]byte(s)) }
	uvar := func(v uint64) { put(binary.AppendUvarint(buf[:0], v)) }
	ivar := func(v int64) { put(binary.AppendVarint(buf[:0], v)) }
	f64 := func(f float64) { put(binary.LittleEndian.AppendUint64(buf[:0], math.Float64bits(f))) }
	boolb := func(b bool) {
		if b {
			put([]byte{1})
		} else {
			put([]byte{0})
		}
	}
	str(version)
	uvar(uint64(req.V))
	str(algorithm)
	str(topology)
	ivar(int64(workers))
	ivar(int64(req.Options.PEs))
	boolb(req.Options.Trace)
	ivar(int64(req.Options.CostDepth))
	ivar(req.Options.DeadlineMs)
	ivar(int64(req.Origin))
	boolb(req.Farthest)
	uvar(uint64(len(req.Dims)))
	for _, d := range req.Dims {
		f64(d)
	}
	uvar(uint64(len(req.System)))
	for _, coords := range req.System {
		uvar(uint64(len(coords)))
		for _, cf := range coords {
			p := poly.New(cf...)
			uvar(uint64(len(p)))
			for _, c := range p {
				f64(c)
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil)), true
}

// checkKey holds Key to keyRef and KeyShape's shape to the system
// algo.SystemFrom builds, where it builds one.
func checkKey(t *testing.T, alg, topo string, workers int, r *api.Request) {
	t.Helper()
	key, shape, ok := KeyShape(alg, topo, workers, r)
	want, wantOK := keyRef(alg, topo, workers, r)
	if key != want || ok != wantOK {
		t.Fatalf("KeyShape = %q %v, keyRef = %q %v", key, ok, want, wantOK)
	}
	if k, _ := Key(alg, topo, workers, r); k != key {
		t.Fatalf("Key = %q, KeyShape = %q", k, key)
	}
	if !ok {
		return
	}
	if sys, err := algo.SystemFrom(r.System); err == nil && (shape.N != sys.N() || shape.K != sys.K) {
		t.Fatalf("shape = %+v, system has N=%d K=%d", shape, sys.N(), sys.K)
	}
}

// TestKeyPinned pins two keys computed by the streaming encoder the
// one-buffer Key replaced: the encoding may not move, or every cached
// answer of a running fleet would be orphaned.
func TestKeyPinned(t *testing.T) {
	full := req([][][]float64{{{0, 1, 0}, {2, 1e-30}}, {{math.Copysign(0, -1), 3}, {4}}}, func(r *api.Request) {
		r.Origin, r.Farthest, r.Dims = 1, true, []float64{40, 41}
		r.Options = api.Options{PEs: 64, Trace: true, CostDepth: 2, DeadlineMs: 100}
	})
	if got, want := mustKey(t, "steady-hull", "mesh", 2, full), "8d36050e862137b0560929a2ad4d1c6b9a59d6492683c0d190bd5700c2376732"; got != want {
		t.Errorf("key = %s, want %s", got, want)
	}
	pair := req([][][]float64{{{1}}, {{2, 0, 0}}}, nil)
	if got, want := mustKey(t, "closest-pair-sequence", "hypercube", 1, pair), "60f7d7f1fa0042c3b19325721c382068ba832151e93603c438135d4f8a09759e"; got != want {
		t.Errorf("key = %s, want %s", got, want)
	}
}

// TestKeyMatchesStreamingEncoder holds Key and KeyShape to keyRef over
// random requests large enough to leave the stack buffer, every option
// set, and a fault spec.
func TestKeyMatchesStreamingEncoder(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		sys := make([][][]float64, 1+rng.Intn(40))
		for i := range sys {
			sys[i] = make([][]float64, 1+rng.Intn(3))
			for j := range sys[i] {
				cf := make([]float64, rng.Intn(5))
				for k := range cf {
					switch rng.Intn(4) {
					case 0:
						cf[k] = 0
					case 1:
						cf[k] = 1e-30
					default:
						cf[k] = rng.NormFloat64() * 100
					}
				}
				sys[i][j] = cf
			}
		}
		r := req(sys, func(r *api.Request) {
			r.Origin, r.Farthest = rng.Intn(5), rng.Intn(2) == 0
			r.Options = api.Options{PEs: rng.Intn(100), Trace: rng.Intn(2) == 0, CostDepth: rng.Intn(3), DeadlineMs: int64(rng.Intn(50))}
			if rng.Intn(10) == 0 {
				r.Options.Faults = "transient=0.1"
			}
		})
		checkKey(t, "hull-vertex-intervals", "mesh", 1+rng.Intn(4), r)
	}
}
