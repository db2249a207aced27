// Package core implements the paper's top-level algorithms for dynamic
// computational geometry: the transient-behaviour computations of §4
// (Table 2) and the steady-state computations of §5 (Table 3), on the
// simulated mesh and hypercube of internal/machine, plus serial reference
// baselines.
//
// Every function takes an explicit *machine.M whose accumulated Stats
// give the simulated parallel running time; the sizing helpers below
// build machines with the PE counts the theorems prescribe (λ_M/λ_H up to
// the constant documented in DESIGN.md).
package core

import (
	"fmt"

	"dyncg/internal/dsseq"
	"dyncg/internal/hypercube"
	"dyncg/internal/machine"
	"dyncg/internal/mesh"
	"dyncg/internal/penvelope"
)

// MeshFor returns a proximity-ordered mesh machine with Θ(λ(n, s)) PEs —
// the Theorem 3.2/4.x allocation.
func MeshFor(n, s int) *machine.M {
	return machine.New(mesh.MustNew(penvelope.MeshPEs(n, s), mesh.Proximity))
}

// CubeFor is MeshFor for the hypercube.
func CubeFor(n, s int) *machine.M {
	return machine.New(hypercube.MustNew(penvelope.CubePEs(n, s)))
}

// MeshOf returns a mesh machine with at least n PEs (for the Θ(n)-PE
// algorithms: Theorem 4.2 and all of §5).
func MeshOf(n int) *machine.M {
	return machine.New(mesh.MustNew(dsseq.NextPow4(n), mesh.Proximity))
}

// CubeOf is MeshOf for the hypercube.
func CubeOf(n int) *machine.M {
	return machine.New(hypercube.MustNew(dsseq.NextPow2(n)))
}

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
