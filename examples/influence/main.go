// Influence regions over time: §6's closing generalisation in action.
// The paper notes its algorithms work for ANY function family with Θ(1)
// storage/evaluation and Θ(1)-computable bounded pairwise intersections —
// not just polynomials. Here the functions are inverse-square signal
// strengths of moving transmitters,
//
//	S_i(t) = P_i / (1 + d_i²(t)),
//
// rational functions of bounded degree (curve.Rational). The *upper*
// envelope of {S_i} tells a receiver at the origin which transmitter is
// strongest during which time intervals — computed by exactly the same
// Theorem 3.2 machinery as the polynomial problems.
//
// Run: go run ./examples/influence
package main

import (
	"fmt"
	"math"

	"dyncg/internal/curve"
	"dyncg/internal/motion"
	"dyncg/internal/penvelope"
	"dyncg/internal/pieces"
	"dyncg/internal/poly"
	"dyncg/internal/topo"
)

func main() {
	// Moving transmitters with different powers; the receiver sits at
	// the origin.
	type tx struct {
		name  string
		power float64
		pt    motion.Point
	}
	txs := []tx{
		{"alpha", 100, motion.NewPoint(poly.New(2), poly.New(0))},        // parked nearby
		{"bravo", 900, motion.NewPoint(poly.New(30, -2), poly.New(1))},   // drives past
		{"charlie", 250, motion.NewPoint(poly.New(-80, 3), poly.New(2))}, // approaches late
		{"delta", 64, motion.NewPoint(poly.New(0), poly.New(4, 0.1))},    // drifts away
	}
	receiver := motion.NewPoint(poly.New(0), poly.New(0))

	curves := make([]curve.Curve, len(txs))
	for i, t := range txs {
		d2 := receiver.DistSq(t.pt) // polynomial of degree ≤ 2k
		den := d2.Add(poly.Constant(1))
		curves[i] = curve.MustRational(poly.Constant(t.power), den)
	}

	// Upper envelope on the hypercube: rationals of this shape cross at
	// most 4 times pairwise (degree-4 cross-multiplied polynomial).
	m, err := topo.NewMachine(topo.Hypercube, penvelope.CubePEs(len(txs), 4))
	if err != nil {
		panic(err)
	}
	env, err := penvelope.EnvelopeOfCurves(m, curves, pieces.Max)
	if err != nil {
		panic(err)
	}
	fmt.Println("strongest transmitter at the receiver, over time:")
	for _, p := range env {
		hi := "∞"
		if !math.IsInf(p.Hi, 1) {
			hi = fmt.Sprintf("%6.2f", p.Hi)
		}
		mid := p.Lo + 1
		if !math.IsInf(p.Hi, 1) {
			mid = (p.Lo + p.Hi) / 2
		}
		fmt.Printf("  [%6.2f, %6s]  %-8s (signal %.2f mid-interval)\n",
			p.Lo, hi, txs[p.ID].name, p.F.Eval(mid))
	}
	fmt.Printf("\nsimulated parallel time: %v\n", m.Stats())
}
