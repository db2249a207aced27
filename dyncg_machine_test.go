package dyncg_test

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"dyncg"
)

// TestParseTopology covers the name → Topology mapping used by the CLIs
// and the server's JSON schema.
func TestParseTopology(t *testing.T) {
	for _, name := range []string{"mesh", "hypercube", "ccc", "shuffle"} {
		topo, err := dyncg.ParseTopology(name)
		if err != nil || string(topo) != name {
			t.Fatalf("ParseTopology(%q) = %v, %v", name, topo, err)
		}
	}
	if _, err := dyncg.ParseTopology("torus"); err == nil {
		t.Fatal("ParseTopology accepted an unknown family")
	}
}

// TestNewMachineAllTopologies constructs every bundled family through
// the options constructor and checks the size matches TopologySize.
func TestNewMachineAllTopologies(t *testing.T) {
	for _, topo := range []dyncg.Topology{dyncg.Mesh, dyncg.Hypercube, dyncg.CCC, dyncg.Shuffle} {
		m, err := dyncg.NewMachine(topo, 30)
		if err != nil {
			t.Fatalf("NewMachine(%s, 30): %v", topo, err)
		}
		want, err := dyncg.TopologySize(topo, 30)
		if err != nil {
			t.Fatalf("TopologySize(%s, 30): %v", topo, err)
		}
		if m.Size() != want {
			t.Fatalf("%s: Size() = %d, TopologySize = %d", topo, m.Size(), want)
		}
	}
	if _, err := dyncg.NewMachine(dyncg.Topology("torus"), 8); err == nil {
		t.Fatal("NewMachine accepted an unknown family")
	}
	// The largest bundled CCC has 8·2⁸ PEs; asking past it is a typed
	// too-few-PEs failure, not a string to match.
	if _, err := dyncg.NewMachine(dyncg.CCC, 1<<20); !errors.Is(err, dyncg.ErrTooFewPEs) {
		t.Fatalf("oversized CCC: err = %v, want ErrTooFewPEs", err)
	}
}

// TestWithTracer checks the construction-time tracer option: the tracer
// is retrievable, and its finished root accounts for every simulated
// step.
func TestWithTracer(t *testing.T) {
	sys := dyncg.RandomSystem(rand.New(rand.NewSource(6)), 8, 1, 2, 8)
	m, err := dyncg.NewMachine(dyncg.Hypercube, 8*sys.N(), dyncg.WithTracer("test"))
	if err != nil {
		t.Fatal(err)
	}
	tr := dyncg.MachineTracer(m)
	if tr == nil {
		t.Fatal("MachineTracer = nil after WithTracer")
	}
	if _, err := dyncg.SteadyHull(m, sys); err != nil {
		t.Fatal(err)
	}
	root := tr.Finish()
	if root == nil || root.Delta().Time() != m.Stats().Time() {
		t.Fatalf("trace root does not cover the run: %v vs %d", root, m.Stats().Time())
	}

	bare, err := dyncg.NewMachine(dyncg.Hypercube, 8)
	if err != nil {
		t.Fatal(err)
	}
	if dyncg.MachineTracer(bare) != nil {
		t.Fatal("MachineTracer non-nil without WithTracer")
	}
}

// TestWithFaultPlan checks the construction-time fault option: transient
// faults charge retry rounds while leaving the answer bit-identical;
// permanent-failure specs and malformed specs are rejected up front.
func TestWithFaultPlan(t *testing.T) {
	sys := dyncg.RandomSystem(rand.New(rand.NewSource(8)), 8, 1, 2, 8)
	pes := dyncg.EnvelopePEs(sys.N(), 2*sys.K)

	clean, err := dyncg.NewMachine(dyncg.Hypercube, pes)
	if err != nil {
		t.Fatal(err)
	}
	faulty, err := dyncg.NewMachine(dyncg.Hypercube, pes,
		dyncg.WithFaultPlan("transient=0.2,retries=4", 99))
	if err != nil {
		t.Fatal(err)
	}
	want, err1 := dyncg.ClosestPointSequence(clean, sys, 0)
	got, err2 := dyncg.ClosestPointSequence(faulty, sys, 0)
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatal("transient faults changed the answer")
	}
	if faulty.Stats().Time() <= clean.Stats().Time() {
		t.Fatalf("transient faults charged no retries: faulty %d, clean %d",
			faulty.Stats().Time(), clean.Stats().Time())
	}

	if _, err := dyncg.NewMachine(dyncg.Hypercube, pes,
		dyncg.WithFaultPlan("fail=2,gap=100", 1)); err == nil {
		t.Fatal("permanent-failure spec accepted by a direct machine")
	}
	if _, err := dyncg.NewMachine(dyncg.Hypercube, pes,
		dyncg.WithFaultPlan("bogus=1", 1)); err == nil {
		t.Fatal("malformed fault spec accepted")
	}
}

// TestTypedErrors checks the errors.Is contract the redesigned facade
// documents: too-small machines and bad inputs fail with the exported
// sentinels, no string matching needed.
func TestTypedErrors(t *testing.T) {
	sys := dyncg.RandomSystem(rand.New(rand.NewSource(9)), 16, 1, 2, 8)

	tiny, err := dyncg.NewMachine(dyncg.Hypercube, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dyncg.ClosestPointSequence(tiny, sys, 0); !errors.Is(err, dyncg.ErrTooFewPEs) {
		t.Fatalf("tiny machine: err = %v, want ErrTooFewPEs", err)
	}

	big, err := dyncg.NewMachine(dyncg.Hypercube, dyncg.EnvelopePEs(sys.N(), 2*sys.K))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dyncg.ClosestPointSequence(big, sys, 99); !errors.Is(err, dyncg.ErrBadSystem) {
		t.Fatalf("bad origin: err = %v, want ErrBadSystem", err)
	}
	if _, err := dyncg.NewSystem(nil); !errors.Is(err, dyncg.ErrBadSystem) {
		t.Fatalf("empty system: err = %v, want ErrBadSystem", err)
	}
}
