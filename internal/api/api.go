// Package api is the versioned JSON schema of the project's serving and
// benchmark surfaces: the v1 request/response envelope of the batch
// daemon (internal/server, cmd/dyncgd) and the BENCH_tables.json record
// written by cmd/tables -json. It is the single source of truth for
// every wire shape — the server, the tables harness, and the golden-file
// tests all import these types, so a field rename or type change shows
// up as a golden diff instead of a silent protocol break.
//
// Conventions:
//
//   - Every envelope carries the schema version ("v": 1). Servers reject
//     other versions; additive evolution (new optional fields) keeps v=1.
//   - Moving points travel as coefficient arrays: a system is
//     point → coordinate → ascending polynomial coefficients, matching
//     dyncg.Polynomial(c0, c1, …).
//   - Time values that may be +Inf (the open end of the last interval of
//     a sequence) use the Time type, which marshals +Inf as the JSON
//     string "inf" (JSON has no infinity literal).
package api

import (
	"fmt"
	"math"
	"strconv"

	"dyncg/internal/machine"
)

// Version is the schema version of every envelope in this package.
const Version = 1

// Time is a time value that may be ±Inf. It marshals as a plain JSON
// number, or as the strings "inf"/"-inf" for the infinities.
type Time float64

// MarshalJSON implements json.Marshaler.
func (t Time) MarshalJSON() ([]byte, error) {
	switch {
	case math.IsInf(float64(t), 1):
		return []byte(`"inf"`), nil
	case math.IsInf(float64(t), -1):
		return []byte(`"-inf"`), nil
	case math.IsNaN(float64(t)):
		return nil, fmt.Errorf("api: NaN time value")
	}
	return strconv.AppendFloat(nil, float64(t), 'g', -1, 64), nil
}

// UnmarshalJSON implements json.Unmarshaler.
func (t *Time) UnmarshalJSON(b []byte) error {
	switch string(b) {
	case `"inf"`:
		*t = Time(math.Inf(1))
		return nil
	case `"-inf"`:
		*t = Time(math.Inf(-1))
		return nil
	}
	f, err := strconv.ParseFloat(string(b), 64)
	if err != nil {
		return fmt.Errorf("api: bad time value %s", b)
	}
	*t = Time(f)
	return nil
}

// Stats is the wire form of machine.Stats — the simulated parallel
// running time of the computation that produced a response.
type Stats struct {
	Time       int64 `json:"time"`
	CommSteps  int64 `json:"comm_steps"`
	LocalSteps int64 `json:"local_steps"`
	Rounds     int64 `json:"rounds"`
	Messages   int64 `json:"messages"`
}

// FromStats converts simulator counters to their wire form.
func FromStats(s machine.Stats) Stats {
	return Stats{
		Time:       s.Time(),
		CommSteps:  s.CommSteps,
		LocalSteps: s.LocalSteps,
		Rounds:     s.Rounds,
		Messages:   s.Messages,
	}
}

// Options are the per-request machine and execution options.
type Options struct {
	// Topology selects the machine family: mesh|hypercube|ccc|shuffle.
	// Empty means hypercube.
	Topology string `json:"topology,omitempty"`
	// PEs raises the minimum machine size above the algorithm's own
	// prescription (the machine is never sized below what the theorem
	// needs). 0 means the algorithm default.
	PEs int `json:"pes,omitempty"`
	// Workers is echoed, resolved (-1 = GOMAXPROCS), in machine.workers.
	// The simulator runs serially whatever it says, so result and stats
	// do not depend on it.
	Workers int `json:"workers,omitempty"`
	// Faults is a fault-injection spec (e.g. "transient=0.05,fail=1");
	// empty means a fault-free run. Requests with faults run under the
	// recovery harness and bypass the warm machine pool.
	Faults string `json:"faults,omitempty"`
	// FaultSeed seeds the fault schedule (same seed = same schedule).
	FaultSeed int64 `json:"fault_seed,omitempty"`
	// Trace attaches a tracer and returns the cost-attribution tree.
	Trace bool `json:"trace,omitempty"`
	// CostDepth limits the returned cost tree depth (0 = unlimited).
	CostDepth int `json:"cost_depth,omitempty"`
	// DeadlineMs caps the request's time in the server, queueing
	// included (0 = the server's default deadline).
	DeadlineMs int64 `json:"deadline_ms,omitempty"`
}

// Request is the v1 request envelope of POST /v1/<algorithm>.
type Request struct {
	V int `json:"v"`
	// System is the system of moving points:
	// point → coordinate → ascending polynomial coefficients.
	System [][][]float64 `json:"system"`
	// Origin is the query point index (algorithms with an origin).
	Origin int `json:"origin,omitempty"`
	// Farthest flips steady-nearest-neighbor to its farthest variant.
	Farthest bool `json:"farthest,omitempty"`
	// Dims are the hyper-rectangle side lengths (containment-intervals).
	Dims    []float64 `json:"dims,omitempty"`
	Options Options   `json:"options,omitempty"`
}

// MachineInfo describes the machine that served a request.
type MachineInfo struct {
	Topology string `json:"topology"`
	PEs      int    `json:"pes"`
	Workers  int    `json:"workers,omitempty"`
}

// PoolInfo reports how the machine was obtained.
type PoolInfo struct {
	// Hit is true when a pre-warmed machine of the right size class was
	// checked out of the pool.
	Hit bool `json:"hit"`
	// Bypassed is true when the request could not use the pool at all
	// (fault-injected runs construct machines inside the recovery
	// harness).
	Bypassed bool `json:"bypassed,omitempty"`
}

// FaultReport is the fault tally of a fault-injected run.
type FaultReport struct {
	Attempts    int   `json:"attempts"`
	Transients  int64 `json:"transients"`
	RetryRounds int64 `json:"retry_rounds"`
	Failed      []int `json:"failed,omitempty"`
}

// Response is the v1 response envelope. Result holds the
// algorithm-specific payload (the element types below).
type Response struct {
	V         int          `json:"v"`
	Algorithm string       `json:"algorithm"`
	Machine   MachineInfo  `json:"machine"`
	Stats     Stats        `json:"stats"`
	Pool      PoolInfo     `json:"pool"`
	Fault     *FaultReport `json:"fault,omitempty"`
	CostTree  string       `json:"cost_tree,omitempty"`
	Result    any          `json:"result"`
}

// --- result payloads -----------------------------------------------------

// NeighborEvent is one element of a closest/farthest-point sequence.
type NeighborEvent struct {
	Point int  `json:"point"`
	Lo    Time `json:"lo"`
	Hi    Time `json:"hi"`
}

// Collision is one collision event.
type Collision struct {
	T float64 `json:"t"`
	A int     `json:"a"`
	B int     `json:"b"`
}

// Interval is a closed time interval; Hi may be "inf".
type Interval struct {
	Lo Time `json:"lo"`
	Hi Time `json:"hi"`
}

// Piece is one piece of a piecewise function of time: the function F
// (rendered by its String form) restricted to [Lo, Hi], generated by
// input curve ID.
type Piece struct {
	F  string `json:"f"`
	ID int    `json:"id"`
	Lo Time   `json:"lo"`
	Hi Time   `json:"hi"`
}

// PairEvent is one element of a closest/farthest-pair sequence.
type PairEvent struct {
	A  int  `json:"a"`
	B  int  `json:"b"`
	Lo Time `json:"lo"`
	Hi Time `json:"hi"`
}

// Neighbor is a steady-state nearest/farthest neighbour.
type Neighbor struct {
	Point int `json:"point"`
}

// Pair is a steady-state closest pair.
type Pair struct {
	A int `json:"a"`
	B int `json:"b"`
}

// FarthestPair is a steady-state farthest pair with the squared-distance
// polynomial realising the diameter (ascending coefficients).
type FarthestPair struct {
	A     int       `json:"a"`
	B     int       `json:"b"`
	Dist2 []float64 `json:"dist2"`
}

// Hull is a steady-state hull: vertex indices in counterclockwise order.
type Hull struct {
	Vertices []int `json:"vertices"`
}

// Rect is a steady-state minimal-area enclosing rectangle: the hull edge
// its base lies on and the area as a rational function of time (rendered
// by its String form).
type Rect struct {
	Edge int    `json:"edge"`
	Area string `json:"area"`
}

// MinCube is the smallest-ever enclosing hypercube: its edge length and
// a time attaining it.
type MinCube struct {
	D float64 `json:"d"`
	T float64 `json:"t"`
}

// --- cmd/tables -json ----------------------------------------------------

// BenchRecord is one (table, row, topology, n) measurement of
// BENCH_tables.json: the simulated time next to the paper's claimed
// Θ-bound evaluated at n, and their ratio (flat ratios across n confirm
// the growth shape).
type BenchRecord struct {
	Table    string  `json:"table"`
	ID       string  `json:"id"`
	Problem  string  `json:"problem"`
	Topology string  `json:"topology"`
	N        int     `json:"n"`
	SimTime  int64   `json:"sim_time"`
	Claim    string  `json:"claim"`
	Bound    float64 `json:"bound"`
	Ratio    float64 `json:"ratio"`
}
