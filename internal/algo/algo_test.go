package algo

import (
	"encoding/json"
	"errors"
	"math/rand"
	"sort"
	"testing"

	"dyncg/internal/api"
	"dyncg/internal/machine"
	"dyncg/internal/motion"
	"dyncg/internal/topo"
)

func TestNamesAreTheTable(t *testing.T) {
	names := Names()
	if len(names) != 14 || !sort.StringsAreSorted(names) {
		t.Fatalf("Names() = %v, want the 14 wire names sorted", names)
	}
	for _, name := range names {
		if _, ok := Lookup(name); !ok {
			t.Errorf("Lookup(%q) failed", name)
		}
	}
	if _, ok := Lookup("closest"); ok {
		t.Error("Lookup accepted a name outside the table")
	}
}

// TestEveryEntryRuns: on the machine it prescribes, every entry returns
// a marshallable wire answer.
func TestEveryEntryRuns(t *testing.T) {
	sys := motion.Random(rand.New(rand.NewSource(7)), 6, 1, 2, 10)
	req := &api.Request{V: api.Version, Origin: 1, Dims: []float64{10, 10}}
	for _, name := range Names() {
		for _, tp := range []topo.Topology{topo.Mesh, topo.Hypercube} {
			a, _ := Lookup(name)
			m, err := topo.NewMachine(tp, a.PEs(string(tp), sys.N(), sys.K))
			if err != nil {
				t.Fatal(err)
			}
			res, err := a.Run(m, sys, req)
			if err != nil {
				t.Fatalf("%s on %s: %v", name, tp, err)
			}
			if _, err := json.Marshal(res); err != nil {
				t.Fatalf("%s on %s: %v", name, tp, err)
			}
			if m.Stats().Time() == 0 {
				t.Errorf("%s on %s charged no simulated time", name, tp)
			}
		}
	}
}

// TestRunGuardsMinimumSize: an entry with a minimum machine rejects a
// smaller one before any work, with the wire error text.
func TestRunGuardsMinimumSize(t *testing.T) {
	sys := motion.Random(rand.New(rand.NewSource(7)), 6, 1, 2, 10)
	a, _ := Lookup("steady-farthest-pair")
	m, err := topo.NewMachine(topo.Hypercube, 16)
	if err != nil {
		t.Fatal(err)
	}
	_, err = a.Run(m, sys, &api.Request{})
	if !errors.Is(err, machine.ErrTooFewPEs) {
		t.Fatalf("err = %v, want ErrTooFewPEs", err)
	}
	if want := "server: steady-farthest-pair needs 24 PEs, machine has 16: " + machine.ErrTooFewPEs.Error(); err.Error() != want {
		t.Errorf("err = %q, want %q", err, want)
	}
	if m.Stats().Time() != 0 {
		t.Errorf("guarded run charged %d", m.Stats().Time())
	}
}

func TestSystemFrom(t *testing.T) {
	if _, err := SystemFrom(nil); !errors.Is(err, motion.ErrBadSystem) {
		t.Errorf("empty system: err = %v, want ErrBadSystem", err)
	}
	sys, err := SystemFrom([][][]float64{{{0, 1}, {2}}, {{3}, {4, 0, 0}}})
	if err != nil {
		t.Fatal(err)
	}
	if sys.N() != 2 || sys.D != 2 || sys.K != 1 {
		t.Errorf("system n=%d d=%d k=%d, want 2, 2, 1", sys.N(), sys.D, sys.K)
	}
}
