// Package algo is the one table of the paper's algorithms as they are
// served: for each wire name (the path element of POST /v1/<name>, and
// the -algo value of cmd/dyncg) the PE count Theorem 3.2 or §5
// prescribes, the smallest machine the algorithm accepts, and the
// internal/core call that computes the answer in its wire form. The
// daemon (internal/server) and the CLI (cmd/dyncg) both run entries of
// this table, so the two cannot disagree on sizing or on which variant
// of an algorithm a name means. The package has no HTTP dependency.
package algo

import (
	"fmt"
	"sort"

	"dyncg/internal/api"
	"dyncg/internal/core"
	"dyncg/internal/machine"
	"dyncg/internal/motion"
	"dyncg/internal/penvelope"
	"dyncg/internal/pieces"
	"dyncg/internal/poly"
)

// Algorithm couples one facade algorithm to its machine prescription and
// wire conversion. Obtain one with Lookup.
type Algorithm struct {
	name string
	// pes is the PE count the theorem prescribes for a system of n
	// points of motion degree k on the given topology family, before
	// topology rounding.
	pes func(topo string, n, k int) int
	// minSize, when non-nil, is the smallest machine the body accepts
	// after rounding or fault degradation (the guard that turns an
	// under-sized degraded submachine into ErrTooFewPEs instead of an
	// index panic).
	minSize func(sys *motion.System) int
	run     func(m *machine.M, sys *motion.System, req *api.Request) (any, error)
}

// Lookup returns the table entry of a wire name.
func Lookup(name string) (Algorithm, bool) {
	a, ok := table[name]
	a.name = name
	return a, ok
}

// Names returns every wire name in the table, sorted.
func Names() []string {
	names := make([]string, 0, len(table))
	for name := range table {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// PEs is the PE count the algorithm prescribes for a system of n points
// of motion degree k (a motion.System's N() and K) on the topology
// family topo ("mesh" gets the λ_M envelope bound, every other family
// λ_H), before the family rounds it up to a network size. It reads
// nothing else of the system, so a request's shape sizes its machine
// before, or without, the system being built.
func (a Algorithm) PEs(topo string, n, k int) int { return a.pes(topo, n, k) }

// Run computes the algorithm on m for sys and the request's parameters
// (origin, dims, farthest) and returns the answer in its wire form. A
// machine below the algorithm's minimum size is rejected with an error
// wrapping machine.ErrTooFewPEs before any work is done.
func (a Algorithm) Run(m *machine.M, sys *motion.System, req *api.Request) (any, error) {
	if a.minSize != nil && m.Size() < a.minSize(sys) {
		return nil, fmt.Errorf("server: %s needs %d PEs, machine has %d: %w",
			a.name, a.minSize(sys), m.Size(), machine.ErrTooFewPEs)
	}
	return a.run(m, sys, req)
}

func atLeast(mult int) func(sys *motion.System) int {
	return func(sys *motion.System) int { return mult * sys.N() }
}

// table is the serving surface: one entry per facade algorithm, keyed by
// its wire name.
var table = map[string]Algorithm{
	"closest-point-sequence": {
		pes: func(topo string, n, k int) int {
			return penvelope.PEs(topo, n, 2*max(k, 1))
		},
		run: func(m *machine.M, sys *motion.System, req *api.Request) (any, error) {
			seq, err := core.ClosestPointSequence(m, sys, req.Origin)
			return NeighborEvents(seq), err
		},
	},
	"farthest-point-sequence": {
		pes: func(topo string, n, k int) int {
			return penvelope.PEs(topo, n, 2*max(k, 1))
		},
		run: func(m *machine.M, sys *motion.System, req *api.Request) (any, error) {
			seq, err := core.FarthestPointSequence(m, sys, req.Origin)
			return NeighborEvents(seq), err
		},
	},
	"collision-times": {
		pes: func(topo string, n, k int) int { return 8 * n },
		run: func(m *machine.M, sys *motion.System, req *api.Request) (any, error) {
			cs, err := core.CollisionTimes(m, sys, req.Origin)
			return Collisions(cs), err
		},
	},
	"hull-vertex-intervals": {
		pes: func(topo string, n, k int) int {
			return penvelope.PEs(topo, n, 4*max(k, 1)+2)
		},
		run: func(m *machine.M, sys *motion.System, req *api.Request) (any, error) {
			ivs, err := core.HullVertexIntervals(m, sys, req.Origin)
			return Intervals(ivs), err
		},
	},
	"containment-intervals": {
		pes: func(topo string, n, k int) int {
			return penvelope.PEs(topo, n, k+2)
		},
		run: func(m *machine.M, sys *motion.System, req *api.Request) (any, error) {
			ivs, err := core.ContainmentIntervals(m, sys, req.Dims)
			return Intervals(ivs), err
		},
	},
	"smallest-hypercube-edge": {
		pes: func(topo string, n, k int) int {
			return penvelope.PEs(topo, n, k+2)
		},
		run: func(m *machine.M, sys *motion.System, req *api.Request) (any, error) {
			pw, err := core.SmallestHypercubeEdge(m, sys)
			return Piecewise(pw), err
		},
	},
	"smallest-ever-hypercube": {
		pes: func(topo string, n, k int) int {
			return penvelope.PEs(topo, n, k+2)
		},
		run: func(m *machine.M, sys *motion.System, req *api.Request) (any, error) {
			dmin, tmin, err := core.SmallestEverHypercube(m, sys)
			return api.MinCube{D: dmin, T: tmin}, err
		},
	},
	"steady-nearest-neighbor": {
		pes:     func(topo string, n, k int) int { return n },
		minSize: atLeast(1),
		run: func(m *machine.M, sys *motion.System, req *api.Request) (any, error) {
			nn, err := core.SteadyNearestNeighborD(m, sys, req.Origin, req.Farthest)
			return api.Neighbor{Point: nn}, err
		},
	},
	"steady-closest-pair": {
		pes:     func(topo string, n, k int) int { return 4 * n },
		minSize: atLeast(1),
		run: func(m *machine.M, sys *motion.System, req *api.Request) (any, error) {
			a, b, err := core.SteadyClosestPair(m, sys)
			return api.Pair{A: a, B: b}, err
		},
	},
	"steady-hull": {
		pes:     func(topo string, n, k int) int { return 8 * n },
		minSize: atLeast(1),
		run: func(m *machine.M, sys *motion.System, req *api.Request) (any, error) {
			hull, err := core.SteadyHull(m, sys)
			return api.Hull{Vertices: hull}, err
		},
	},
	"steady-farthest-pair": {
		pes: func(topo string, n, k int) int { return 8 * n },
		// The antipodal stage groups hull edges with query directions on
		// one machine, so it needs headroom beyond the point count.
		minSize: atLeast(4),
		run: func(m *machine.M, sys *motion.System, req *api.Request) (any, error) {
			a, b, d2, err := core.SteadyFarthestPair(m, sys)
			return api.FarthestPair{A: a, B: b, Dist2: Coefs(d2)}, err
		},
	},
	"steady-min-area-rect": {
		pes:     func(topo string, n, k int) int { return 8 * n },
		minSize: atLeast(4),
		run: func(m *machine.M, sys *motion.System, req *api.Request) (any, error) {
			rect, err := core.SteadyMinAreaRect(m, sys)
			if err != nil {
				return nil, err
			}
			return api.Rect{Edge: rect.Edge, Area: fmt.Sprintf("%v", rect.Area)}, nil
		},
	},
	"closest-pair-sequence": {
		pes: func(topo string, n, k int) int {
			k = max(k, 1)
			return penvelope.PEs(topo, core.PairSequencePEs(n, k), 2*k)
		},
		run: func(m *machine.M, sys *motion.System, req *api.Request) (any, error) {
			seq, err := core.ClosestPairSequence(m, sys)
			return PairEvents(seq), err
		},
	},
	"farthest-pair-sequence": {
		pes: func(topo string, n, k int) int {
			k = max(k, 1)
			return penvelope.PEs(topo, core.PairSequencePEs(n, k), 2*k)
		},
		run: func(m *machine.M, sys *motion.System, req *api.Request) (any, error) {
			seq, err := core.FarthestPairSequence(m, sys)
			return PairEvents(seq), err
		},
	},
}

// --- wire conversions ----------------------------------------------------
//
// Converters return empty (not nil) slices so an empty result marshals
// as [] rather than null, and they are total — a nil input (the
// error-path value) converts to an empty payload the response encoder
// never sees.

// NeighborEvents converts a closest/farthest-point sequence.
func NeighborEvents(seq []core.NeighborEvent) []api.NeighborEvent {
	out := make([]api.NeighborEvent, 0, len(seq))
	for _, ev := range seq {
		out = append(out, api.NeighborEvent{Point: ev.Point, Lo: api.Time(ev.Lo), Hi: api.Time(ev.Hi)})
	}
	return out
}

// Collisions converts a list of collision times.
func Collisions(cs []core.Collision) []api.Collision {
	out := make([]api.Collision, 0, len(cs))
	for _, c := range cs {
		out = append(out, api.Collision{T: c.T, A: c.A, B: c.B})
	}
	return out
}

// Intervals converts a list of time intervals.
func Intervals(ivs []core.Interval) []api.Interval {
	out := make([]api.Interval, 0, len(ivs))
	for _, iv := range ivs {
		out = append(out, api.Interval{Lo: api.Time(iv.Lo), Hi: api.Time(iv.Hi)})
	}
	return out
}

// Piecewise converts a piecewise function.
func Piecewise(pw pieces.Piecewise) []api.Piece {
	out := make([]api.Piece, 0, len(pw))
	for _, p := range pw {
		out = append(out, api.Piece{F: fmt.Sprintf("%v", p.F), ID: p.ID, Lo: api.Time(p.Lo), Hi: api.Time(p.Hi)})
	}
	return out
}

// PairEvents converts a closest/farthest-pair sequence.
func PairEvents(seq []core.PairEvent) []api.PairEvent {
	out := make([]api.PairEvent, 0, len(seq))
	for _, ev := range seq {
		out = append(out, api.PairEvent{A: ev.A, B: ev.B, Lo: api.Time(ev.Lo), Hi: api.Time(ev.Hi)})
	}
	return out
}

// Coefs converts a polynomial to its ascending coefficients.
func Coefs(p poly.Poly) []float64 {
	return append(make([]float64, 0, len(p)), p...)
}

// SystemFrom decodes the wire form of a system of moving points:
// point → coordinate → ascending polynomial coefficients.
func SystemFrom(raw [][][]float64) (*motion.System, error) {
	if len(raw) == 0 {
		return nil, fmt.Errorf("server: empty system: %w", motion.ErrBadSystem)
	}
	pts := make([]motion.Point, len(raw))
	for i, coords := range raw {
		pts[i] = PointFrom(coords)
	}
	return motion.NewSystem(pts)
}

// PointFrom decodes one moving point (coordinate → ascending
// coefficients).
func PointFrom(coords [][]float64) motion.Point {
	cs := make([]poly.Poly, len(coords))
	for j, cf := range coords {
		cs[j] = poly.New(cf...)
	}
	return motion.NewPoint(cs...)
}
