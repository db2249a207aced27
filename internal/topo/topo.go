// Package topo is the machine-construction facade shared by the public
// dyncg package and the serving layers: topology names, family size
// rounding, network construction, and the option-configured machine
// constructor. It sits below the public facade so internal consumers
// (internal/server, internal/replaylog) can build machines without
// importing package dyncg — which in turn lets the facade import those
// layers (dyncg.Replay) without an import cycle. Package dyncg re-exports
// everything here under its original names; error strings keep the
// "dyncg:" prefix because they are part of the facade's error contract.
package topo

import (
	"fmt"
	"math"

	"dyncg/internal/ccc"
	"dyncg/internal/dsseq"
	"dyncg/internal/fault"
	"dyncg/internal/hypercube"
	"dyncg/internal/machine"
	"dyncg/internal/mesh"
	"dyncg/internal/shuffle"
	"dyncg/internal/trace"
)

// Topology names one of the bundled interconnection networks. The mesh
// and hypercube are the paper's machines (§2.2, §2.3); the cube-connected
// cycles and shuffle-exchange networks are the §6 extensions.
type Topology string

// The bundled topologies.
const (
	Mesh      Topology = "mesh"      // √n×√n mesh, proximity (Hilbert) order
	Hypercube Topology = "hypercube" // Gray-code-labelled hypercube
	CCC       Topology = "ccc"       // cube-connected cycles
	Shuffle   Topology = "shuffle"   // shuffle-exchange
)

// Parse converts a topology name (as used by the CLIs and the server's
// JSON schema) into a Topology.
func Parse(s string) (Topology, error) {
	switch t := Topology(s); t {
	case Mesh, Hypercube, CCC, Shuffle:
		return t, nil
	}
	return "", fmt.Errorf("dyncg: unknown topology %q (want mesh|hypercube|ccc|shuffle)", s)
}

// maxPow2 is the largest power of two (and of four) an int holds: 2^62
// on 64-bit hosts. Rounding a larger n up would overflow.
const maxPow2 = math.MaxInt>>1 + 1

// Size returns the exact PE count NewNetwork(topo, n) will construct:
// the smallest bundled network of the family with at least n PEs (meshes
// round up to a power of four, hypercubes and shuffle-exchange networks
// to a power of two, CCCs to q·2^q). Callers that pool machines by size
// class (internal/server) use it to compute the class key without
// constructing a network.
func Size(t Topology, n int) (int, error) {
	switch t {
	case Mesh, Hypercube, Shuffle:
		if n > maxPow2 {
			return 0, fmt.Errorf("dyncg: no %s network has %d PEs (largest is %d): %w",
				t, n, maxPow2, machine.ErrTooFewPEs)
		}
	}
	switch t {
	case Mesh:
		return dsseq.NextPow4(n), nil
	case Hypercube, Shuffle:
		return dsseq.NextPow2(n), nil
	case CCC:
		for _, q := range []int{1, 2, 4, 8} {
			if q*(1<<q) >= n {
				return q * (1 << q), nil
			}
		}
		return 0, fmt.Errorf("dyncg: no bundled CCC has %d PEs (largest is %d): %w",
			n, 8*(1<<8), machine.ErrTooFewPEs)
	}
	return 0, fmt.Errorf("dyncg: unknown topology %q (want mesh|hypercube|ccc|shuffle)", t)
}

// NewNetwork constructs the smallest network of the given family with at
// least n PEs (see Size for the rounding rules).
func NewNetwork(t Topology, n int) (machine.Topology, error) {
	size, err := Size(t, n)
	if err != nil {
		return nil, err
	}
	switch t {
	case Mesh:
		return mesh.New(size, mesh.Proximity)
	case Hypercube:
		return hypercube.New(size)
	case Shuffle:
		q := 0
		for 1<<q < size {
			q++
		}
		return shuffle.New(q)
	case CCC:
		for _, q := range []int{1, 2, 4, 8} {
			if q*(1<<q) == size {
				return ccc.New(q)
			}
		}
	}
	panic("unreachable") // Size already vetted topo and size
}

// config collects the Option settings applied by NewMachine.
type config struct {
	mopts      []machine.Option
	tracerName string
	hasTracer  bool
	faultSpec  string
	faultSeed  int64
	hasFault   bool
}

// Option configures a machine built by NewMachine.
type Option func(*config)

// WithParallel runs the machine's per-PE compute loops on a worker pool
// of the given size (≤ 0 means GOMAXPROCS). Simulated costs, outputs,
// and trace streams are identical to the serial backend; only host
// wall-clock time changes.
func WithParallel(workers int) Option {
	return func(c *config) {
		c.mopts = append(c.mopts, machine.WithParallel(workers))
	}
}

// WithTracer attaches a Tracer (rooted at the given span name) to the
// machine at construction.
func WithTracer(rootName string) Option {
	return func(c *config) {
		c.tracerName = rootName
		c.hasTracer = true
	}
}

// WithFaultPlan installs a seeded deterministic fault schedule parsed
// from the -faults spec syntax (e.g. "transient=0.05,retries=3").
// Transient link faults charge retry rounds while leaving answers
// bit-identical. Specs with permanent PE failures (fail=…) are rejected:
// a directly driven machine cannot survive a PE failure — permanent
// failures need the remap-and-rerun recovery harness (internal/fault.Run,
// or cmd/dyncg -faults).
func WithFaultPlan(spec string, seed int64) Option {
	return func(c *config) {
		c.faultSpec = spec
		c.faultSeed = seed
		c.hasFault = true
	}
}

// NewMachine constructs a simulated machine of the given topology family
// with at least n PEs — the single constructor behind every CLI,
// example, and the serving daemon. Options configure the parallel
// execution backend, tracing, and fault injection.
func NewMachine(t Topology, n int, opts ...Option) (*machine.M, error) {
	var cfg config
	for _, o := range opts {
		o(&cfg)
	}
	net, err := NewNetwork(t, n)
	if err != nil {
		return nil, err
	}
	m := machine.New(net, cfg.mopts...)
	if cfg.hasFault {
		spec, err := fault.ParseSpec(cfg.faultSpec)
		if err != nil {
			return nil, err
		}
		if spec.Fail > 0 {
			return nil, fmt.Errorf("dyncg: fault spec %q has permanent failures (fail=%d); a directly driven machine cannot survive a PE failure — use the recovery harness (cmd/dyncg -faults)", cfg.faultSpec, spec.Fail)
		}
		if !spec.Zero() {
			p := fault.NewPlan(spec, cfg.faultSeed)
			p.Bind(m.Size())
			m.SetInjector(p)
		}
	}
	if cfg.hasTracer {
		trace.Attach(m, cfg.tracerName)
	}
	return m, nil
}
