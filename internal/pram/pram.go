// Package pram is the comparison baseline of §1 and §6: the
// O(log n)-time n-processor CREW PRAM lower-envelope algorithm of
// [Chandran and Mount 1989], *simulated* on the mesh and hypercube.
//
// The paper's point is quantitative: an n-PE mesh emulates one CREW PRAM
// step (with concurrent reads) in Θ(√n) time and a hypercube in Θ(log² n)
// time (via bitonic-sort-based request routing), so direct simulation
// yields Θ(√n·log n) and Θ(log³ n) envelope algorithms — strictly worse
// than the native constructions of Theorem 3.2 (Θ(λ^{1/2}(n,s)) and
// Θ(log² n)). This package reproduces that comparison *measured*: it runs
// the envelope computation while charging, for every PRAM step, one
// sort-based concurrent-access emulation on the same machine simulator,
// so the C2 benchmark compares like with like.
package pram

import (
	"math/bits"
	"strconv"

	"dyncg/internal/colstore"
	"dyncg/internal/curve"
	"dyncg/internal/machine"
	"dyncg/internal/pieces"
)

// StepsPerLevel is the number of CREW PRAM rounds charged per
// divide-and-conquer level of the envelope algorithm (read the two
// sub-envelopes, locate overlaps, write the merged pieces). The
// Chandran–Mount algorithm performs Θ(1) such rounds per level, O(log n)
// in total.
const StepsPerLevel = 3

// Envelope computes the lower/upper envelope of cs "on a CREW PRAM
// simulated by machine m": the result is exact (computed by the serial
// reference), and m is charged StepsPerLevel sort-based concurrent-access
// emulations per level — the §6 simulation cost. It returns the envelope
// and the number of PRAM steps charged.
func Envelope(m *machine.M, cs []curve.Curve, kind pieces.Kind) (pieces.Piecewise, int) {
	if m.Observed() {
		m.SpanBegin("pram-envelope", "funcs", strconv.Itoa(len(cs)))
		defer m.SpanEnd()
	}
	env := pieces.EnvelopeOfCurves(cs, kind)
	levels := bits.Len(uint(len(cs)))
	steps := 0
	for l := 0; l < levels; l++ {
		for s := 0; s < StepsPerLevel; s++ {
			chargeConcurrentAccess(m)
			steps++
		}
	}
	return env, steps
}

// chargeConcurrentAccess charges one emulated CREW concurrent-read/write
// round: requests are routed by sorting (keys are PE indices; bitonic
// sort cost is data-independent), the standard emulation the paper cites
// (Θ(√n) mesh, Θ(log² n) hypercube).
func chargeConcurrentAccess(m *machine.M) {
	if m.Observed() {
		m.SpanBegin("pram-step")
		defer m.SpanEnd()
	}
	n := m.Size()
	regs := colstore.New[int](n)
	for i := range regs.Val {
		regs.Set(i, n-i)
	}
	machine.SortCols(m, regs, func(a, b int) bool { return a < b })
}
