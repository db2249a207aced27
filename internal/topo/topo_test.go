package topo

import (
	"errors"
	"testing"

	"dyncg/internal/machine"
)

func TestParse(t *testing.T) {
	for _, name := range []string{"mesh", "hypercube", "ccc", "shuffle"} {
		tp, err := Parse(name)
		if err != nil || string(tp) != name {
			t.Fatalf("Parse(%q) = %q, %v", name, tp, err)
		}
	}
	if _, err := Parse("torus"); err == nil {
		t.Fatal("Parse accepted an unknown topology")
	}
}

func TestSize(t *testing.T) {
	cases := []struct {
		tp   Topology
		n    int
		want int
	}{
		{Mesh, 1, 1},
		{Mesh, 5, 16},
		{Mesh, 16, 16},
		{Mesh, 17, 64},
		{Hypercube, 5, 8},
		{Hypercube, 8, 8},
		{Shuffle, 9, 16},
		{CCC, 1, 2},
		{CCC, 3, 8},
		{CCC, 9, 64},
		{CCC, 65, 2048},
	}
	for _, c := range cases {
		got, err := Size(c.tp, c.n)
		if err != nil || got != c.want {
			t.Fatalf("Size(%s, %d) = %d, %v; want %d", c.tp, c.n, got, err, c.want)
		}
	}
	if _, err := Size(CCC, 3000); !errors.Is(err, machine.ErrTooFewPEs) {
		t.Fatalf("Size(ccc, 3000) err = %v, want ErrTooFewPEs", err)
	}
	// Past the largest power of two an int holds, rounding up would
	// overflow to 0 and never return.
	for _, tp := range []Topology{Mesh, Hypercube, Shuffle} {
		if got, err := Size(tp, maxPow2); err != nil || got != maxPow2 {
			t.Fatalf("Size(%s, %d) = %d, %v; want %d", tp, maxPow2, got, err, maxPow2)
		}
		if _, err := Size(tp, maxPow2+1); !errors.Is(err, machine.ErrTooFewPEs) {
			t.Fatalf("Size(%s, 2^62+1) err = %v, want ErrTooFewPEs", tp, err)
		}
	}
	if _, err := Size(Topology("torus"), 4); err == nil {
		t.Fatal("Size accepted an unknown topology")
	}
}

func TestNewNetwork(t *testing.T) {
	for _, tp := range []Topology{Mesh, Hypercube, CCC, Shuffle} {
		net, err := NewNetwork(tp, 9)
		if err != nil {
			t.Fatalf("NewNetwork(%s, 9): %v", tp, err)
		}
		want, _ := Size(tp, 9)
		if net.Size() != want {
			t.Fatalf("NewNetwork(%s, 9).Size() = %d, want %d", tp, net.Size(), want)
		}
	}
	if _, err := NewNetwork(Topology("torus"), 4); err == nil {
		t.Fatal("NewNetwork accepted an unknown topology")
	}
}

func TestNewMachineOptions(t *testing.T) {
	m, err := NewMachine(Hypercube, 8, WithTracer("test"))
	if err != nil {
		t.Fatalf("NewMachine: %v", err)
	}
	if m.Size() != 8 {
		t.Fatalf("Size() = %d, want 8", m.Size())
	}

	if _, err := NewMachine(Hypercube, 8, WithFaultPlan("transient=2.0", 1)); err == nil {
		t.Fatal("NewMachine accepted a bad fault spec")
	}
	if _, err := NewMachine(Hypercube, 8, WithFaultPlan("fail=1", 1)); err == nil {
		t.Fatal("NewMachine accepted permanent failures without the recovery harness")
	}
	if _, err := NewMachine(Topology("torus"), 8); err == nil {
		t.Fatal("NewMachine accepted an unknown topology")
	}
	if _, err := NewMachine(Hypercube, 8, WithFaultPlan("transient=0.1", 1)); err != nil {
		t.Fatalf("NewMachine with transient plan: %v", err)
	}
	if _, err := NewMachine(Hypercube, 8, WithFaultPlan("", 0)); err != nil {
		t.Fatalf("NewMachine with empty fault spec: %v", err)
	}
}
