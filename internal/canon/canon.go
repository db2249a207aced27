// Package canon computes the canonical-form hash of a one-shot v1
// serving request: a SHA-256 over a normalized binary encoding of every
// field that can influence the response bytes, so that semantically
// identical requests — however their JSON was spelled — hash equal, and
// requests that could produce different responses hash apart.
//
// The hash is the dedup key of the serving layer's response cache
// (internal/rcache) and in-flight request coalescer (internal/coalesce):
// hash-equal requests are interchangeable, because the serving pipeline
// is a deterministic function of exactly the hashed fields. The
// normalizations applied are precisely the ones the computation itself
// applies when it decodes a request, no more:
//
//   - Coefficient arrays are normalized as poly.New normalizes them —
//     trailing coefficients that are zero or negligible relative to the
//     array's largest magnitude are trimmed — because that is what
//     systemFrom feeds the algorithms. [1, 2, 0] and [1, 2] are the same
//     motion.
//   - Remaining coefficients are hashed by their exact IEEE-754 bit
//     pattern (so 1, 1.0, and 1e0 coincide after JSON decoding, while
//     -0.0 stays distinct from +0.0 — the sign can surface in printed
//     rational functions, so merging them would be unsound).
//   - The topology and worker count are hashed in resolved form (the
//     caller supplies the post-default values), since both appear in
//     the response envelope.
//   - JSON field order, whitespace, and number spelling never reach the
//     hash at all: hashing happens on the decoded api.Request.
//
// Everything else that can steer the response — origin, farthest, dims,
// the PEs floor, trace and cost-depth, the deadline — is hashed
// verbatim. Fault-injected requests are not canonicalized: they bypass
// caching entirely (Key reports them uncacheable), because their cost
// accounting depends on the injected schedule, not only the system.
package canon

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"

	"dyncg/internal/api"
	"dyncg/internal/poly"
)

// version is the canonical-encoding version, hashed first so an
// encoding change can never collide with keys from an older layout.
const version = "dyncg-canon-v1"

// Shape is a request's system as the algorithms size it: N points of
// motion degree K, the largest degree of any normalized coordinate
// polynomial (0 when every coordinate is constant or zero). It equals
// the N() and K of the motion.System the request decodes to.
type Shape struct{ N, K int }

// Key returns the canonical-form SHA-256 (hex) of a one-shot request
// and whether the request is cacheable at all. algorithm is the URL
// path element; topology and workers are the server-resolved values
// (defaults applied), since both are echoed in the response envelope.
// A request with a fault spec is uncacheable: its response depends on
// the injected schedule and its accounting on the recovery harness.
func Key(algorithm, topology string, workers int, req *api.Request) (string, bool) {
	key, _, ok := KeyShape(algorithm, topology, workers, req)
	return key, ok
}

// KeyShape is Key that also returns the request's Shape, read off the
// same pass over the system. The shape is zero when the request is
// uncacheable.
func KeyShape(algorithm, topology string, workers int, req *api.Request) (string, Shape, bool) {
	if req.Options.Faults != "" {
		return "", Shape{}, false
	}
	// The encoding is built in one buffer and hashed once; a request of
	// up to about a hundred coefficients fits on the stack.
	var stack [1024]byte
	b := stack[:0]
	str := func(s string) {
		b = binary.AppendUvarint(b, uint64(len(s)))
		b = append(b, s...)
	}
	boolb := func(v bool) {
		if v {
			b = append(b, 1)
		} else {
			b = append(b, 0)
		}
	}

	str(version)
	b = binary.AppendUvarint(b, uint64(req.V))
	str(algorithm)
	str(topology)
	b = binary.AppendVarint(b, int64(workers))
	b = binary.AppendVarint(b, int64(req.Options.PEs))
	boolb(req.Options.Trace)
	b = binary.AppendVarint(b, int64(req.Options.CostDepth))
	b = binary.AppendVarint(b, req.Options.DeadlineMs)
	b = binary.AppendVarint(b, int64(req.Origin))
	boolb(req.Farthest)

	b = binary.AppendUvarint(b, uint64(len(req.Dims)))
	for _, d := range req.Dims {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(d))
	}

	shape := Shape{N: len(req.System)}
	b = binary.AppendUvarint(b, uint64(len(req.System)))
	for _, coords := range req.System {
		b = binary.AppendUvarint(b, uint64(len(coords)))
		for _, cf := range coords {
			// The same normalization systemFrom applies, trimmed in
			// place: the algorithms never see the trimmed coefficients,
			// so neither does the key. Degree is the trimmed length − 1.
			deg := poly.Poly(cf).Degree()
			shape.K = max(shape.K, deg)
			b = binary.AppendUvarint(b, uint64(deg+1))
			for _, c := range cf[:deg+1] {
				b = binary.LittleEndian.AppendUint64(b, math.Float64bits(c))
			}
		}
	}

	sum := sha256.Sum256(b)
	var key [2 * sha256.Size]byte
	hex.Encode(key[:], sum[:])
	return string(key[:]), shape, true
}
