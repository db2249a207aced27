package core

import (
	"dyncg/internal/dsseq"
	"dyncg/internal/hypercube"
	"dyncg/internal/machine"
	"dyncg/internal/mesh"
	"dyncg/internal/penvelope"
)

// meshFor returns a proximity-ordered mesh machine with Θ(λ(n, s)) PEs —
// the Theorem 3.2/4.x allocation.
func meshFor(n, s int) *machine.M {
	return machine.New(mesh.MustNew(penvelope.MeshPEs(n, s), mesh.Proximity))
}

// cubeFor is meshFor for the hypercube.
func cubeFor(n, s int) *machine.M {
	return machine.New(hypercube.MustNew(penvelope.CubePEs(n, s)))
}

// meshOf returns a mesh machine with at least n PEs (for the Θ(n)-PE
// algorithms: Theorem 4.2 and all of §5).
func meshOf(n int) *machine.M {
	return machine.New(mesh.MustNew(dsseq.NextPow4(n), mesh.Proximity))
}

// cubeOf is meshOf for the hypercube.
func cubeOf(n int) *machine.M {
	return machine.New(hypercube.MustNew(dsseq.NextPow2(n)))
}
