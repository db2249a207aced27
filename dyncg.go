// Package dyncg is a Go reproduction of
//
//	L. Boxer and R. Miller, "Dynamic Computational Geometry on Meshes
//	and Hypercubes" (ICPP 1988; journal version 1989),
//
// providing parallel algorithms for geometric properties of systems of
// moving point-objects with polynomial ("k-motion") trajectories, executed
// on simulated mesh-connected and hypercube computers with faithful
// communication-cost accounting.
//
// # Model
//
// A System holds n points whose coordinates are polynomials of degree ≤ k
// in time (§2.4 of the paper). Algorithms run on a Machine — either a
// √n×√n mesh with proximity (Peano–Hilbert) PE ordering (§2.2) or a
// Gray-code-labelled hypercube (§2.3) — and the machine's Stats report the
// simulated parallel running time that the paper's Θ-bounds describe.
//
// # Transient-behaviour algorithms (paper §4, Table 2)
//
//   - ClosestPointSequence / FarthestPointSequence (Theorem 4.1)
//   - CollisionTimes (Theorem 4.2)
//   - HullVertexIntervals (Theorem 4.5)
//   - ContainmentIntervals (Theorem 4.6)
//   - SmallestHypercubeEdge / SmallestEverHypercube (Thm 4.7, Cor 4.8)
//
// # Steady-state algorithms (paper §5, Table 3)
//
//   - SteadyNearestNeighbor (Proposition 5.2, in any dimension)
//   - SteadyClosestPair (Proposition 5.3)
//   - SteadyHull (Proposition 5.4)
//   - SteadyFarthestPair (Proposition 5.6, Corollary 5.7)
//   - SteadyMinAreaRect (Theorem 5.8, Corollary 5.9)
//
// # Quick start
//
//	sys, _ := dyncg.NewSystem([]dyncg.Point{
//	    dyncg.NewPoint(dyncg.Polynomial(0, 1), dyncg.Polynomial(0)),   // (t, 0)
//	    dyncg.NewPoint(dyncg.Polynomial(10, -1), dyncg.Polynomial(1)), // (10−t, 1)
//	})
//	m, _ := dyncg.NewMachine(dyncg.Hypercube, dyncg.EnvelopePEs(sys.N(), 2*sys.K))
//	seq, _ := dyncg.ClosestPointSequence(m, sys, 0)
//	fmt.Println(seq, m.Stats())
//
// See the runnable programs under examples/ and the experiment
// reproduction harness in bench_test.go and cmd/tables.
package dyncg

import (
	"io"
	"math/rand"

	"dyncg/internal/core"
	"dyncg/internal/dsseq"
	"dyncg/internal/fault"
	"dyncg/internal/machine"
	"dyncg/internal/motion"
	"dyncg/internal/penvelope"
	"dyncg/internal/pieces"
	"dyncg/internal/poly"
	"dyncg/internal/topo"
	"dyncg/internal/trace"
)

// --- typed errors --------------------------------------------------------
//
// Every validation failure in the facade and its internal packages wraps
// one of these sentinels, so callers branch with errors.Is instead of
// matching message strings (the server in internal/server maps them to
// HTTP statuses the same way).
var (
	// ErrTooFewPEs: the machine is too small for the computation (the
	// algorithms prescribe Θ(n) or Θ(λ(n, s)) PEs; see EnvelopePEs).
	ErrTooFewPEs = machine.ErrTooFewPEs
	// ErrBadSystem: the system of moving points (or a query against it)
	// violates the paper's §2.4 input model.
	ErrBadSystem = motion.ErrBadSystem
	// ErrNotSurvivable: a fault schedule killed enough PEs that no
	// healthy aligned submachine can still run the computation.
	ErrNotSurvivable = fault.ErrNotSurvivable
)

// Point is a moving point-object: one polynomial per coordinate (§2.4).
type Point = motion.Point

// System is a dynamic system of moving point-objects with k-motion.
type System = motion.System

// Machine is a simulated mesh or hypercube with cost accounting.
type Machine = machine.M

// Stats is the simulated parallel running time of a computation.
type Stats = machine.Stats

// Interval is a closed time interval; Hi may be +Inf.
type Interval = core.Interval

// NeighborEvent is one element of a closest/farthest-point sequence.
type NeighborEvent = core.NeighborEvent

// Collision is a collision event between two points.
type Collision = core.Collision

// Piecewise is an ordered piecewise function of time (a min/max function
// description, §2.5).
type Piecewise = pieces.Piecewise

// Polynomial builds the polynomial c0 + c1·t + c2·t² + … .
func Polynomial(coefs ...float64) poly.Poly { return poly.New(coefs...) }

// NewPoint builds a moving point from its coordinate polynomials.
func NewPoint(coords ...poly.Poly) Point { return motion.NewPoint(coords...) }

// NewSystem validates and wraps a set of moving points.
func NewSystem(pts []Point) (*System, error) { return motion.NewSystem(pts) }

// RandomSystem generates a random n-point system with k-motion in d
// dimensions (a benchmark workload).
func RandomSystem(r *rand.Rand, n, k, d int, scale float64) *System {
	return motion.Random(r, n, k, d, scale)
}

// Topology names one of the bundled interconnection networks. The mesh
// and hypercube are the paper's machines (§2.2, §2.3); the cube-connected
// cycles and shuffle-exchange networks are the §6 extensions.
// (= internal/topo.Topology, the construction facade shared with the
// serving layers.)
type Topology = topo.Topology

// The bundled topologies.
const (
	Mesh      = topo.Mesh      // √n×√n mesh, proximity (Hilbert) order
	Hypercube = topo.Hypercube // Gray-code-labelled hypercube
	CCC       = topo.CCC       // cube-connected cycles
	Shuffle   = topo.Shuffle   // shuffle-exchange
)

// ParseTopology converts a topology name (as used by the CLIs and the
// server's JSON schema) into a Topology.
func ParseTopology(s string) (Topology, error) { return topo.Parse(s) }

// Network is the communication structure a Machine simulates
// (= machine.Topology). Networks are immutable after construction and
// may be shared across machines and goroutines.
type Network = machine.Topology

// TopologySize returns the exact PE count NewNetwork(topo, n) will
// construct: the smallest bundled network of the family with at least n
// PEs (meshes round up to a power of four, hypercubes and
// shuffle-exchange networks to a power of two, CCCs to q·2^q). Callers
// that pool machines by size class (internal/server) use it to compute
// the class key without constructing a network.
func TopologySize(t Topology, n int) (int, error) { return topo.Size(t, n) }

// NewNetwork constructs the smallest network of the given family with at
// least n PEs (see TopologySize for the rounding rules).
func NewNetwork(t Topology, n int) (Network, error) { return topo.NewNetwork(t, n) }

// MachineOption configures a machine built by NewMachine.
type MachineOption = topo.Option

// WithTracer attaches a Tracer (rooted at the given span name) to the
// machine at construction. Retrieve it with MachineTracer and call
// Finish to obtain the span tree.
func WithTracer(rootName string) MachineOption { return topo.WithTracer(rootName) }

// WithFaultPlan installs a seeded deterministic fault schedule parsed
// from the -faults spec syntax (e.g. "transient=0.05,retries=3").
// Transient link faults charge retry rounds while leaving answers
// bit-identical. Specs with permanent PE failures (fail=…) are rejected:
// a directly driven machine cannot survive a PE failure — permanent
// failures need the remap-and-rerun recovery harness (internal/fault.Run,
// or cmd/dyncg -faults).
func WithFaultPlan(spec string, seed int64) MachineOption {
	return topo.WithFaultPlan(spec, seed)
}

// NewMachine constructs a simulated machine of the given topology family
// with at least n PEs — the single constructor behind every machine the
// CLIs, examples and daemon drive directly (the recovery harness,
// fault.Run, builds each attempt's machine from a NewNetwork network).
// Options configure tracing and fault injection.
func NewMachine(t Topology, n int, opts ...MachineOption) (*Machine, error) {
	return topo.NewMachine(t, n, opts...)
}

// MachineTracer returns the Tracer attached to m by WithTracer (or
// AttachTracer), or nil if no tracer is attached.
func MachineTracer(m *Machine) *Tracer {
	if t, ok := m.Observer().(*trace.Tracer); ok {
		return t
	}
	return nil
}

// EnvelopePEs returns the number of PEs the envelope-based algorithms
// need for n functions with at most s pairwise intersections — the
// Θ(λ(n, s)) allocation of Theorem 3.2.
func EnvelopePEs(n, s int) int { return penvelope.CubePEs(n, s) }

// Lambda returns the Davenport–Schinzel bound λ(n, s) (§2.5).
func Lambda(n, s int) int { return dsseq.Lambda(n, s) }

// --- §4: transient behaviour -------------------------------------------

// ClosestPointSequence returns the chronological sequence of closest
// points to sys.Points[origin] (Theorem 4.1).
func ClosestPointSequence(m *Machine, sys *System, origin int) ([]NeighborEvent, error) {
	return core.ClosestPointSequence(m, sys, origin)
}

// FarthestPointSequence returns the chronological sequence of farthest
// points from sys.Points[origin] (Theorem 4.1).
func FarthestPointSequence(m *Machine, sys *System, origin int) ([]NeighborEvent, error) {
	return core.FarthestPointSequence(m, sys, origin)
}

// CollisionTimes returns the sorted times at which sys.Points[origin]
// collides with other points (Theorem 4.2).
func CollisionTimes(m *Machine, sys *System, origin int) ([]Collision, error) {
	return core.CollisionTimes(m, sys, origin)
}

// HullVertexIntervals returns the ordered time intervals during which
// sys.Points[origin] is an extreme point of the convex hull of the
// planar system (Theorem 4.5).
func HullVertexIntervals(m *Machine, sys *System, origin int) ([]Interval, error) {
	return core.HullVertexIntervals(m, sys, origin)
}

// ContainmentIntervals returns the ordered time intervals during which
// the system fits in an iso-oriented hyper-rectangle with the given side
// lengths (Theorem 4.6).
func ContainmentIntervals(m *Machine, sys *System, dims []float64) ([]Interval, error) {
	return core.ContainmentIntervals(m, sys, dims)
}

// SmallestHypercubeEdge returns the piecewise function D(t): the edge
// length of the smallest iso-oriented hypercube containing the system at
// time t (Theorem 4.7).
func SmallestHypercubeEdge(m *Machine, sys *System) (Piecewise, error) {
	return core.SmallestHypercubeEdge(m, sys)
}

// SmallestEverHypercube returns min_t D(t) and a time attaining it
// (Corollary 4.8).
func SmallestEverHypercube(m *Machine, sys *System) (dmin, tmin float64, err error) {
	return core.SmallestEverHypercube(m, sys)
}

// --- §5: steady state ----------------------------------------------------

// SteadyNearestNeighbor returns a steady-state nearest (or farthest)
// neighbour of sys.Points[origin] (Proposition 5.2), for systems in any
// dimension.
func SteadyNearestNeighbor(m *Machine, sys *System, origin int, farthest bool) (int, error) {
	return core.SteadyNearestNeighborD(m, sys, origin, farthest)
}

// SteadyClosestPair returns a steady-state closest pair (Proposition 5.3).
func SteadyClosestPair(m *Machine, sys *System) (int, int, error) {
	return core.SteadyClosestPair(m, sys)
}

// SteadyHull returns the steady-state hull vertices in counterclockwise
// order (Proposition 5.4).
func SteadyHull(m *Machine, sys *System) ([]int, error) {
	return core.SteadyHull(m, sys)
}

// SteadyFarthestPair returns a steady-state farthest pair and the
// squared-distance polynomial realising the diameter function
// (Proposition 5.6, Corollary 5.7).
func SteadyFarthestPair(m *Machine, sys *System) (a, b int, dist2 poly.Poly, err error) {
	return core.SteadyFarthestPair(m, sys)
}

// SteadyRect describes a steady-state minimal-area enclosing rectangle.
type SteadyRect = core.SteadyRect

// SteadyMinAreaRect returns a steady-state minimal-area enclosing
// rectangle (Theorem 5.8, Corollary 5.9).
func SteadyMinAreaRect(m *Machine, sys *System) (SteadyRect, error) {
	return core.SteadyMinAreaRect(m, sys)
}

// --- §6: extensions ------------------------------------------------------

// PairEvent is one element of a closest/farthest-pair sequence (§6).
type PairEvent = core.PairEvent

// ClosestPairSequence returns the chronological sequence of closest
// pairs of the whole system — the extension sketched in §6 ("Further
// Remarks"), using Θ(λ(n(n−1)/2, 2k)) PEs (size machines with
// PairSequencePEs).
func ClosestPairSequence(m *Machine, sys *System) ([]PairEvent, error) {
	return core.ClosestPairSequence(m, sys)
}

// FarthestPairSequence is the farthest-pair (diameter-over-time)
// variant of ClosestPairSequence.
func FarthestPairSequence(m *Machine, sys *System) ([]PairEvent, error) {
	return core.FarthestPairSequence(m, sys)
}

// PairSequencePEs returns λ(n(n−1)/2, 2k), the §6 bound on the pieces
// of a pair sequence's envelope — not the function count n(n−1)/2.
func PairSequencePEs(n, k int) int { return core.PairSequencePEs(n, k) }

// --- tracing & cost attribution ------------------------------------------

// Tracer records a hierarchical span tree attributing a machine's
// simulated time to algorithm phases and data-movement primitives.
type Tracer = trace.Tracer

// TraceSpan is one node of a recorded span tree; its Delta is the
// simulated-time Stats charged while the span was open.
type TraceSpan = trace.Span

// TraceMetrics is an aggregate per-primitive cost registry built from a
// span tree.
type TraceMetrics = trace.Metrics

// AttachTracer installs a Tracer on m. Run any algorithms, then call
// Finish to obtain the span tree; while attached, every primitive
// (sort, merge, prefix, broadcast, …) and every instrumented theorem
// records a span.
func AttachTracer(m *Machine, rootName string) *Tracer { return trace.Attach(m, rootName) }

// WriteChromeTrace writes a span tree in Chrome trace-event JSON format
// (load the file in chrome://tracing or ui.perfetto.dev; timestamps are
// simulated steps rendered as microseconds).
func WriteChromeTrace(w io.Writer, root *TraceSpan, m *Machine) error {
	return trace.WriteChrome(w, root, m)
}

// WriteCostTree pretty-prints the per-span cost-attribution tree
// (maxDepth 0 means unlimited).
func WriteCostTree(w io.Writer, root *TraceSpan, maxDepth int) {
	trace.WriteCostTree(w, root, maxDepth)
}

// CollectTraceMetrics aggregates the per-primitive self-costs of a span
// tree (totals sum exactly to the root's Stats).
func CollectTraceMetrics(root *TraceSpan) *TraceMetrics { return trace.Collect(root) }
