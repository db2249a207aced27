// Package core implements the paper's top-level algorithms for dynamic
// computational geometry: the transient-behaviour computations of §4
// (Table 2) and the steady-state computations of §5 (Table 3), on the
// simulated mesh and hypercube of internal/machine, plus serial reference
// baselines.
//
// Every function takes an explicit *machine.M whose accumulated Stats
// give the simulated parallel running time. Build it with
// topo.NewMachine at the PE count the theorem prescribes: the envelope
// allocation penvelope.MeshPEs/CubePEs (λ_M/λ_H up to the constant
// documented in DESIGN.md) for §4, Θ(n) for §5; internal/algo holds the
// prescription of every served algorithm.
package core

import "fmt"

// Interval is a time interval [Lo, Hi]; Hi may be +Inf.
type Interval struct {
	Lo, Hi float64
}

func (iv Interval) String() string { return fmt.Sprintf("[%g, %g]", iv.Lo, iv.Hi) }

// mergeAbutting coalesces sorted intervals that share endpoints (the
// final parallel-prefix packing step used throughout §4; a Θ(1)-round
// operation charged by the callers).
func mergeAbutting(ivs []Interval) []Interval {
	if len(ivs) == 0 {
		return nil
	}
	out := []Interval{ivs[0]}
	for _, iv := range ivs[1:] {
		last := &out[len(out)-1]
		if iv.Lo <= last.Hi {
			if iv.Hi > last.Hi {
				last.Hi = iv.Hi
			}
			continue
		}
		out = append(out, iv)
	}
	return out
}
