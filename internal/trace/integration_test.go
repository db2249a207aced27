package trace_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"dyncg/internal/core"
	"dyncg/internal/machine"
	"dyncg/internal/motion"
	"dyncg/internal/penvelope"
	"dyncg/internal/topo"
	"dyncg/internal/trace"
)

func mustMachine(t *testing.T, family topo.Topology, n int) *machine.M {
	t.Helper()
	m, err := topo.NewMachine(family, n)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestExactAttributionEndToEnd is the subsystem's acceptance check: for a
// §4 transient algorithm (Theorem 4.1 closest-point sequence) and a §5
// steady-state algorithm (Proposition 5.4 hull), on both the mesh and the
// hypercube, the traced root span accounts for the machine's simulated
// time *exactly* — no charged step escapes attribution.
func TestExactAttributionEndToEnd(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	sys := motion.Random(r, 12, 1, 2, 5)

	cases := []struct {
		algo string
		topo string
		m    *machine.M
		run  func(m *machine.M) error
	}{
		{"thm4.1-closest-seq", "mesh", mustMachine(t, topo.Mesh, penvelope.MeshPEs(sys.N()-1, 2)), func(m *machine.M) error {
			_, err := core.ClosestPointSequence(m, sys, 0)
			return err
		}},
		{"thm4.1-closest-seq", "hypercube", mustMachine(t, topo.Hypercube, penvelope.CubePEs(sys.N()-1, 2)), func(m *machine.M) error {
			_, err := core.ClosestPointSequence(m, sys, 0)
			return err
		}},
		{"prop5.4-steady-hull", "mesh", mustMachine(t, topo.Mesh, 4*sys.N()), func(m *machine.M) error {
			_, err := core.SteadyHull(m, sys)
			return err
		}},
		{"prop5.4-steady-hull", "hypercube", mustMachine(t, topo.Hypercube, 4*sys.N()), func(m *machine.M) error {
			_, err := core.SteadyHull(m, sys)
			return err
		}},
	}
	for _, tc := range cases {
		t.Run(tc.algo+"/"+tc.topo, func(t *testing.T) {
			tr := trace.Attach(tc.m, "run")
			if err := tc.run(tc.m); err != nil {
				t.Fatalf("%s on %s: %v", tc.algo, tc.topo, err)
			}
			root := tr.Finish()

			want := tc.m.Stats()
			if want.Time() == 0 {
				t.Fatalf("algorithm charged no simulated time")
			}
			if got := root.Delta(); got != want {
				t.Errorf("root delta %+v != machine stats %+v", got, want)
			}

			// The algorithm's named theorem span must be present and, as
			// the only child of the root, account for the full runtime.
			var algoSpan *trace.Span
			root.Walk(func(s *trace.Span, _ int) {
				if s.Name == tc.algo {
					algoSpan = s
				}
			})
			if algoSpan == nil {
				t.Fatalf("no span named %q in trace", tc.algo)
			}
			if got := algoSpan.Delta().Time(); got != want.Time() {
				t.Errorf("span %q time %d != machine time %d", tc.algo, got, want.Time())
			}

			// Self-times partition the total exactly.
			var selfSum int64
			root.Walk(func(s *trace.Span, _ int) { selfSum += s.Self().Time() })
			if selfSum != want.Time() {
				t.Errorf("Σ self %d != machine time %d", selfSum, want.Time())
			}

			// Chrome export round-trips and its root event carries the
			// exact simulated duration.
			var buf bytes.Buffer
			if err := trace.WriteChrome(&buf, root, tc.m); err != nil {
				t.Fatalf("WriteChrome: %v", err)
			}
			var ct trace.ChromeTrace
			if err := json.Unmarshal(buf.Bytes(), &ct); err != nil {
				t.Fatalf("chrome JSON does not round-trip: %v", err)
			}
			var rootDur int64 = -1
			for _, ev := range ct.TraceEvents {
				if ev.Ph == "X" && ev.Name == "run" {
					rootDur = ev.Dur
				}
			}
			if rootDur != want.Time() {
				t.Errorf("chrome root Dur %d != machine time %d", rootDur, want.Time())
			}

			// The cost tree reports the same exact total.
			var tree bytes.Buffer
			trace.WriteCostTree(&tree, root, 0)
			header := fmt.Sprintf("root total = %d", want.Time())
			if !strings.Contains(tree.String(), header) {
				t.Errorf("cost tree missing %q:\n%s", header, tree.String())
			}
		})
	}
}

// TestMetricsAcrossAlgorithms checks the aggregate registry over a full
// algorithm run: per-primitive self-times sum to the machine total.
func TestMetricsAcrossAlgorithms(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	sys := motion.Random(r, 10, 1, 2, 5)
	m := mustMachine(t, topo.Mesh, 4*sys.N())
	tr := trace.Attach(m, "run")
	if _, _, err := core.SteadyClosestPair(m, sys); err != nil {
		t.Fatal(err)
	}
	root := tr.Finish()
	ms := trace.Collect(root)
	if ms.Root != m.Stats() {
		t.Fatalf("metrics root %+v != machine stats %+v", ms.Root, m.Stats())
	}
	var sum int64
	for _, pm := range ms.ByName {
		sum += pm.Total.Time()
	}
	if sum != m.Stats().Time() {
		t.Fatalf("Σ per-primitive self %d != machine time %d", sum, m.Stats().Time())
	}
	if ms.ByName["sort"] == nil || ms.ByName["sort"].Calls == 0 {
		t.Fatalf("expected sort primitives in steady closest-pair run")
	}
}
