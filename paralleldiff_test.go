// Differential tests for the worker-pool execution backend: on every
// topology and worker count, a machine built with machine.WithParallel
// must be observationally identical to the serial backend — same
// primitive outputs, same Stats counters, and the same trace span tree
// down to the individual RoundInfo events. This is the determinism
// contract of internal/par (disjoint shards, ordered reduction, all cost
// charging on the owning goroutine) made executable; it runs under -race
// in CI, so it also proves the sharded loops are free of data races.
package dyncg_test

import (
	"math/rand"
	"reflect"
	"testing"

	"dyncg/internal/ccc"
	"dyncg/internal/colstore"
	"dyncg/internal/curve"
	"dyncg/internal/geom"
	"dyncg/internal/hypercube"
	"dyncg/internal/machine"
	"dyncg/internal/mesh"
	"dyncg/internal/penvelope"
	"dyncg/internal/pgeom"
	"dyncg/internal/pieces"
	"dyncg/internal/poly"
	"dyncg/internal/ratfun"
	"dyncg/internal/shuffle"
	"dyncg/internal/trace"
)

// diffTopologies returns one 64-PE instance of each of the four bundled
// topologies. Each instance is shared between the serial and parallel
// machines of a subtest (topologies are immutable, including their
// memoised cost tables).
func diffTopologies() map[string]machine.Topology {
	return map[string]machine.Topology{
		"mesh":      mesh.MustNew(64, mesh.Proximity),
		"hypercube": hypercube.MustNew(64),
		"ccc":       ccc.MustNew(4),     // 4·2^4 = 64 PEs
		"shuffle":   shuffle.MustNew(6), // 2^6 = 64 PEs
	}
}

var diffWorkers = []int{1, 2, 8}

// table1Workload exercises every Table-1 primitive on one machine and
// returns everything observable: the final register files of each phase
// plus the machine's Stats.
func table1Workload(m *machine.M, vals []int) (outs []colstore.File[int], st machine.Stats) {
	n := m.Size()
	grab := func(regs colstore.File[int]) {
		cp := colstore.New[int](regs.Len())
		cp.CopyFrom(regs)
		outs = append(outs, cp)
	}

	// Sort (bitonic, XOR rounds).
	regs := colstore.Scatter(n, vals)
	machine.SortCols(m, regs, func(a, b int) bool { return a < b })
	grab(regs)

	// Merge of two sorted halves.
	regs = colstore.Scatter(n, vals)
	machine.SortBlocksCols(m, regs, n/2, func(a, b int) bool { return a < b })
	machine.MergeBlocksCols(m, regs, n, func(a, b int) bool { return a < b })
	grab(regs)

	// Segmented parallel prefix (shift rounds), forward and backward.
	regs = colstore.Scatter(n, vals)
	seg := machine.BlockSegments(n, 16)
	machine.ScanCols(m, regs, seg, machine.Forward, func(a, b int) int { return a + b })
	grab(regs)
	machine.ScanCols(m, regs, seg, machine.Backward, func(a, b int) int { return a + b })
	grab(regs)

	// Semigroup (min) and broadcast.
	regs = colstore.Scatter(n, vals)
	machine.SemigroupCols(m, regs, seg, func(a, b int) int {
		if a < b {
			return a
		}
		return b
	})
	grab(regs)
	bregs := colstore.New[int](n)
	bregs.Set(n/3, vals[0])
	machine.SpreadCols(m, bregs, machine.WholeMachine(n))
	grab(bregs)

	// Compaction of a sparse file, then a block-local shift.
	sparse := colstore.New[int](n)
	for i := 0; i < n; i += 3 {
		sparse.Set(i, vals[i])
	}
	machine.CompactCols(m, sparse, seg)
	grab(sparse)
	shifted := machine.ShiftWithinCols(m, sparse, 16, +2)
	grab(shifted)

	// Grouping / sort-based concurrent read.
	idx := machine.Group(m, vals[:n/2], vals[n/4:3*n/4], func(a, b int) bool { return a < b })
	ig := colstore.New[int](len(idx))
	for i, v := range idx {
		ig.Set(i, v)
	}
	grab(ig)

	return outs, m.Stats()
}

// requireSpansEqual walks two span trees in lockstep and fails on the
// first structural, attribute, counter, or round-stream divergence.
func requireSpansEqual(t *testing.T, want, got *trace.Span, path string) {
	t.Helper()
	if want.Name != got.Name {
		t.Fatalf("%s: span name %q != %q", path, got.Name, want.Name)
	}
	path += "/" + want.Name
	if !reflect.DeepEqual(want.Attrs, got.Attrs) {
		t.Fatalf("%s: attrs %v != %v", path, got.Attrs, want.Attrs)
	}
	if want.Begin != got.Begin || want.End != got.End {
		t.Fatalf("%s: counters begin %+v end %+v != begin %+v end %+v",
			path, got.Begin, got.End, want.Begin, want.End)
	}
	if !reflect.DeepEqual(want.Rounds, got.Rounds) {
		t.Fatalf("%s: round stream diverges (%d vs %d rounds): got %+v want %+v",
			path, len(got.Rounds), len(want.Rounds), got.Rounds, want.Rounds)
	}
	if len(want.Children) != len(got.Children) {
		t.Fatalf("%s: %d children != %d", path, len(got.Children), len(want.Children))
	}
	for i := range want.Children {
		requireSpansEqual(t, want.Children[i], got.Children[i], path)
	}
}

// TestParallelDifferentialTable1 proves the worker-pool backend
// bit-identical to the serial one on all four topologies × worker counts:
// same outputs, same Stats, same span tree with the same round stream.
func TestParallelDifferentialTable1(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for topoName, topo := range diffTopologies() {
		vals := make([]int, topo.Size())
		for i := range vals {
			vals[i] = r.Intn(1 << 16)
		}
		serial := machine.New(topo)
		str := trace.Attach(serial, "diff", trace.WithRounds())
		wantOuts, wantStats := table1Workload(serial, vals)
		wantRoot := str.Finish()

		for _, workers := range diffWorkers {
			t.Run(topoName, func(t *testing.T) {
				par := machine.New(topo, machine.WithParallel(workers))
				if par.Workers() != workers {
					t.Fatalf("Workers() = %d, want %d", par.Workers(), workers)
				}
				ptr := trace.Attach(par, "diff", trace.WithRounds())
				gotOuts, gotStats := table1Workload(par, vals)
				gotRoot := ptr.Finish()

				if !reflect.DeepEqual(wantOuts, gotOuts) {
					for k := range wantOuts {
						if !reflect.DeepEqual(wantOuts[k], gotOuts[k]) {
							t.Fatalf("workers=%d: output %d diverges from serial", workers, k)
						}
					}
					t.Fatalf("workers=%d: outputs diverge from serial", workers)
				}
				if gotStats != wantStats {
					t.Fatalf("workers=%d: stats %+v != serial %+v", workers, gotStats, wantStats)
				}
				requireSpansEqual(t, wantRoot, gotRoot, "")
			})
		}
	}
}

// TestParallelDifferentialEnvelope runs the Theorem 3.2 envelope (whose
// Lemma 3.1 window step is the hottest sharded loop) serial vs parallel.
func TestParallelDifferentialEnvelope(t *testing.T) {
	r := rand.New(rand.NewSource(43))
	n := 32
	cs := make([]curve.Curve, n)
	for i := range cs {
		cs[i] = curve.NewPoly(poly.New(r.NormFloat64()*5, r.NormFloat64(), 0.2+r.Float64()))
	}
	for _, tc := range []struct {
		name string
		topo machine.Topology
	}{
		{"mesh", mesh.MustNew(penvelope.MeshPEs(n, 2), mesh.Proximity)},
		{"hypercube", hypercube.MustNew(penvelope.CubePEs(n, 2))},
	} {
		serial := machine.New(tc.topo)
		str := trace.Attach(serial, "env", trace.WithRounds())
		wantEnv, err := penvelope.EnvelopeOfCurves(serial, cs, pieces.Min)
		if err != nil {
			t.Fatal(err)
		}
		wantStats, wantRoot := serial.Stats(), str.Finish()

		for _, workers := range diffWorkers {
			par := machine.New(tc.topo, machine.WithParallel(workers))
			ptr := trace.Attach(par, "env", trace.WithRounds())
			gotEnv, err := penvelope.EnvelopeOfCurves(par, cs, pieces.Min)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(wantEnv, gotEnv) {
				t.Fatalf("%s workers=%d: envelope diverges from serial", tc.name, workers)
			}
			if got := par.Stats(); got != wantStats {
				t.Fatalf("%s workers=%d: stats %+v != serial %+v", tc.name, workers, got, wantStats)
			}
			requireSpansEqual(t, wantRoot, ptr.Finish(), tc.name)
		}
	}
}

// TestParallelDifferentialGeometry runs the static geometry algorithms
// (closest pair, convex hull, nearest neighbour) serial vs parallel.
func TestParallelDifferentialGeometry(t *testing.T) {
	r := rand.New(rand.NewSource(44))
	n := 64
	pts := make([]geom.Point[ratfun.F64], n)
	for i := range pts {
		pts[i] = geom.Point[ratfun.F64]{
			X: ratfun.F64(r.NormFloat64() * 20), Y: ratfun.F64(r.NormFloat64() * 20), ID: i,
		}
	}
	cpTopo := hypercube.MustNew(4 * n)
	hullTopo := hypercube.MustNew(8 * n)

	scp := machine.New(cpTopo)
	wa, wb, wd := pgeom.ClosestPair(scp, pts)
	shm := machine.New(hullTopo)
	wantHull, err := pgeom.HullStatic(shm, pts)
	if err != nil {
		t.Fatal(err)
	}
	snn := machine.New(cpTopo)
	wantNN := pgeom.NearestNeighbor(snn, pts, 0, false)

	for _, workers := range diffWorkers {
		pcp := machine.New(cpTopo, machine.WithParallel(workers))
		ga, gb, gd := pgeom.ClosestPair(pcp, pts)
		if ga != wa || gb != wb || gd != wd || pcp.Stats() != scp.Stats() {
			t.Fatalf("workers=%d: closest pair (%d,%d,%v,%+v) != serial (%d,%d,%v,%+v)",
				workers, ga, gb, gd, pcp.Stats(), wa, wb, wd, scp.Stats())
		}
		phm := machine.New(hullTopo, machine.WithParallel(workers))
		gotHull, err := pgeom.HullStatic(phm, pts)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(wantHull, gotHull) || phm.Stats() != shm.Stats() {
			t.Fatalf("workers=%d: hull diverges from serial", workers)
		}
		pnn := machine.New(cpTopo, machine.WithParallel(workers))
		if got := pgeom.NearestNeighbor(pnn, pts, 0, false); got != wantNN || pnn.Stats() != snn.Stats() {
			t.Fatalf("workers=%d: nearest neighbour %d (%+v) != serial %d (%+v)",
				workers, got, pnn.Stats(), wantNN, snn.Stats())
		}
	}
}
