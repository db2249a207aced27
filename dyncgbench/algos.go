package main

import (
	"fmt"

	"dyncg/internal/api"
	"dyncg/internal/core"
	"dyncg/internal/machine"
	"dyncg/internal/motion"
	"dyncg/internal/penvelope"
	"dyncg/internal/pieces"
	"dyncg/internal/poly"
)

// sysKind names the generator a one-shot endpoint draws its systems
// from: the same families the server's endpoint battery uses, so every
// generated request is one the algorithm accepts.
type sysKind int

const (
	planar    sysKind = iota // random planar 1-motion
	colliding                // points converging on the origin
	diverging                // distinct velocity directions (steady-state hulls)
)

// endpoint is the benchmark's own copy of one serving endpoint: how to
// generate its systems, how many PEs the theorem prescribes, and the
// facade call plus wire conversion the server performs. The copy is
// deliberate: the traced run and the correctness oracle call the layers
// directly, and the traced-run integrity check (pipeline bytes equal to
// the served bytes) catches any drift from internal/server.
type endpoint struct {
	name    string
	sys     sysKind
	sizes   [3]int // points per size class, small to large
	pes     func(topo string, sys *motion.System) int
	minSize int // minimum machine size as a multiple of n (0 = none)
	origin  bool
	dims    bool
	run     func(m *machine.M, sys *motion.System, req *api.Request) (any, error)
}

func envPEs(topo string, n, s int) int {
	if topo == "mesh" {
		return penvelope.MeshPEs(n, s)
	}
	return penvelope.CubePEs(n, s)
}

func atLeast1(k int) int {
	if k < 1 {
		return 1
	}
	return k
}

// endpoints lists all 14 one-shot endpoints. The size classes are
// chosen so each endpoint spans at least three machine size classes on
// both the hypercube and the mesh while a single request stays in the
// low milliseconds on one core.
var endpoints = []endpoint{
	{name: "closest-point-sequence", sys: planar, sizes: [3]int{6, 16, 48}, origin: true,
		pes: func(t string, s *motion.System) int { return envPEs(t, s.N(), 2*atLeast1(s.K)) },
		run: func(m *machine.M, s *motion.System, r *api.Request) (any, error) {
			seq, err := core.ClosestPointSequence(m, s, r.Origin)
			return neighborEvents(seq), err
		}},
	{name: "farthest-point-sequence", sys: planar, sizes: [3]int{6, 16, 48}, origin: true,
		pes: func(t string, s *motion.System) int { return envPEs(t, s.N(), 2*atLeast1(s.K)) },
		run: func(m *machine.M, s *motion.System, r *api.Request) (any, error) {
			seq, err := core.FarthestPointSequence(m, s, r.Origin)
			return neighborEvents(seq), err
		}},
	{name: "collision-times", sys: colliding, sizes: [3]int{8, 24, 64}, origin: true,
		pes: func(t string, s *motion.System) int { return 8 * s.N() },
		run: func(m *machine.M, s *motion.System, r *api.Request) (any, error) {
			cs, err := core.CollisionTimes(m, s, r.Origin)
			return collisions(cs), err
		}},
	{name: "hull-vertex-intervals", sys: planar, sizes: [3]int{3, 4, 6}, origin: true,
		pes: func(t string, s *motion.System) int { return envPEs(t, s.N(), 4*atLeast1(s.K)+2) },
		run: func(m *machine.M, s *motion.System, r *api.Request) (any, error) {
			ivs, err := core.HullVertexIntervals(m, s, r.Origin)
			return intervals(ivs), err
		}},
	{name: "containment-intervals", sys: planar, sizes: [3]int{3, 4, 6}, dims: true,
		pes: func(t string, s *motion.System) int { return envPEs(t, s.N(), s.K+2) },
		run: func(m *machine.M, s *motion.System, r *api.Request) (any, error) {
			ivs, err := core.ContainmentIntervals(m, s, r.Dims)
			return intervals(ivs), err
		}},
	{name: "smallest-hypercube-edge", sys: planar, sizes: [3]int{3, 4, 6},
		pes: func(t string, s *motion.System) int { return envPEs(t, s.N(), s.K+2) },
		run: func(m *machine.M, s *motion.System, r *api.Request) (any, error) {
			pw, err := core.SmallestHypercubeEdge(m, s)
			return piecewise(pw), err
		}},
	{name: "smallest-ever-hypercube", sys: planar, sizes: [3]int{3, 4, 6},
		pes: func(t string, s *motion.System) int { return envPEs(t, s.N(), s.K+2) },
		run: func(m *machine.M, s *motion.System, r *api.Request) (any, error) {
			d, tm, err := core.SmallestEverHypercube(m, s)
			return api.MinCube{D: d, T: tm}, err
		}},
	{name: "steady-nearest-neighbor", sys: planar, sizes: [3]int{8, 32, 128}, origin: true, minSize: 1,
		pes: func(t string, s *motion.System) int { return s.N() },
		run: func(m *machine.M, s *motion.System, r *api.Request) (any, error) {
			nn, err := core.SteadyNearestNeighborD(m, s, r.Origin, r.Farthest)
			return api.Neighbor{Point: nn}, err
		}},
	{name: "steady-closest-pair", sys: planar, sizes: [3]int{8, 16, 32}, minSize: 1,
		pes: func(t string, s *motion.System) int { return 4 * s.N() },
		run: func(m *machine.M, s *motion.System, r *api.Request) (any, error) {
			a, b, err := core.SteadyClosestPair(m, s)
			return api.Pair{A: a, B: b}, err
		}},
	{name: "steady-hull", sys: diverging, sizes: [3]int{4, 8, 16}, minSize: 1,
		pes: func(t string, s *motion.System) int { return 8 * s.N() },
		run: func(m *machine.M, s *motion.System, r *api.Request) (any, error) {
			hull, err := core.SteadyHull(m, s)
			return api.Hull{Vertices: hull}, err
		}},
	{name: "steady-farthest-pair", sys: diverging, sizes: [3]int{4, 8, 16}, minSize: 4,
		pes: func(t string, s *motion.System) int { return 8 * s.N() },
		run: func(m *machine.M, s *motion.System, r *api.Request) (any, error) {
			a, b, d2, err := core.SteadyFarthestPair(m, s)
			return api.FarthestPair{A: a, B: b, Dist2: coefs(d2)}, err
		}},
	{name: "steady-min-area-rect", sys: diverging, sizes: [3]int{4, 8, 16}, minSize: 4,
		pes: func(t string, s *motion.System) int { return 8 * s.N() },
		run: func(m *machine.M, s *motion.System, r *api.Request) (any, error) {
			rect, err := core.SteadyMinAreaRect(m, s)
			if err != nil {
				return nil, err
			}
			return api.Rect{Edge: rect.Edge, Area: fmt.Sprintf("%v", rect.Area)}, nil
		}},
	{name: "closest-pair-sequence", sys: planar, sizes: [3]int{4, 6, 8},
		pes: func(t string, s *motion.System) int {
			k := atLeast1(s.K)
			return envPEs(t, core.PairSequencePEs(s.N(), k), 2*k)
		},
		run: func(m *machine.M, s *motion.System, r *api.Request) (any, error) {
			seq, err := core.ClosestPairSequence(m, s)
			return pairEvents(seq), err
		}},
	{name: "farthest-pair-sequence", sys: planar, sizes: [3]int{4, 6, 8},
		pes: func(t string, s *motion.System) int {
			k := atLeast1(s.K)
			return envPEs(t, core.PairSequencePEs(s.N(), k), 2*k)
		},
		run: func(m *machine.M, s *motion.System, r *api.Request) (any, error) {
			seq, err := core.FarthestPairSequence(m, s)
			return pairEvents(seq), err
		}},
}

// endpointByName indexes endpoints.
var endpointByName = func() map[string]*endpoint {
	idx := make(map[string]*endpoint, len(endpoints))
	for i := range endpoints {
		idx[endpoints[i].name] = &endpoints[i]
	}
	return idx
}()

// The wire conversions the server applies to facade answers (empty, not
// nil, slices so an empty answer marshals as []).

func neighborEvents(seq []core.NeighborEvent) []api.NeighborEvent {
	out := make([]api.NeighborEvent, 0, len(seq))
	for _, ev := range seq {
		out = append(out, api.NeighborEvent{Point: ev.Point, Lo: api.Time(ev.Lo), Hi: api.Time(ev.Hi)})
	}
	return out
}

func collisions(cs []core.Collision) []api.Collision {
	out := make([]api.Collision, 0, len(cs))
	for _, c := range cs {
		out = append(out, api.Collision{T: c.T, A: c.A, B: c.B})
	}
	return out
}

func intervals(ivs []core.Interval) []api.Interval {
	out := make([]api.Interval, 0, len(ivs))
	for _, iv := range ivs {
		out = append(out, api.Interval{Lo: api.Time(iv.Lo), Hi: api.Time(iv.Hi)})
	}
	return out
}

func piecewise(pw pieces.Piecewise) []api.Piece {
	out := make([]api.Piece, 0, len(pw))
	for _, p := range pw {
		out = append(out, api.Piece{F: fmt.Sprintf("%v", p.F), ID: p.ID, Lo: api.Time(p.Lo), Hi: api.Time(p.Hi)})
	}
	return out
}

func pairEvents(seq []core.PairEvent) []api.PairEvent {
	out := make([]api.PairEvent, 0, len(seq))
	for _, ev := range seq {
		out = append(out, api.PairEvent{A: ev.A, B: ev.B, Lo: api.Time(ev.Lo), Hi: api.Time(ev.Hi)})
	}
	return out
}

func coefs(p poly.Poly) []float64 {
	return append(make([]float64, 0, len(p)), p...)
}

// systemFrom decodes the wire form of a system the way the server does:
// point → coordinate → ascending coefficients, normalised by poly.New.
func systemFrom(raw [][][]float64) (*motion.System, error) {
	if len(raw) == 0 {
		return nil, fmt.Errorf("empty system: %w", motion.ErrBadSystem)
	}
	pts := make([]motion.Point, len(raw))
	for i, coords := range raw {
		pts[i] = pointFrom(coords)
	}
	return motion.NewSystem(pts)
}

func pointFrom(coords [][]float64) motion.Point {
	cs := make([]poly.Poly, len(coords))
	for j, cf := range coords {
		cs[j] = poly.New(cf...)
	}
	return motion.NewPoint(cs...)
}

// wireSystem is the inverse of systemFrom.
func wireSystem(sys *motion.System) [][][]float64 {
	out := make([][][]float64, len(sys.Points))
	for i, p := range sys.Points {
		out[i] = wirePoint(p)
	}
	return out
}

func wirePoint(p motion.Point) [][]float64 {
	coords := make([][]float64, len(p.Coord))
	for j, c := range p.Coord {
		coords[j] = append([]float64(nil), c...)
	}
	return coords
}
