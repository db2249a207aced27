// Pinned host-performance benchmark suite for the op layer — the
// continuous-benchmark counterpart of bench_test.go. Where bench_test.go
// measures *simulated parallel time* (the paper's quantity), this file
// measures the *simulator's own* cost per primitive: wall-clock ns/op,
// B/op, and allocs/op of the Table-1 data movement operations in steady
// state — a warm machine whose scratch arena has reached its fixed
// point, the regime a long-running simulation (cmd/tables, the chaos
// battery, any Table-2/3 run) actually lives in.
//
// scripts/bench.sh runs exactly this suite with -benchmem, converts the
// output into BENCH_perf.json via cmd/benchgate, and (-check) gates a
// change against the committed baseline with documented tolerances —
// allocs/op is the deterministic, machine-independent gate; ns/op only
// catches catastrophic regressions. Keep the benchmark names and
// workloads pinned: the baseline is only comparable to itself.
package dyncg_test

import (
	"fmt"
	"math/rand"
	"testing"

	"dyncg/internal/colstore"
	"dyncg/internal/curve"
	"dyncg/internal/dsseq"
	"dyncg/internal/hypercube"
	"dyncg/internal/machine"
	"dyncg/internal/mesh"
	"dyncg/internal/penvelope"
	"dyncg/internal/pieces"
	"dyncg/internal/poly"
)

// perfTopologies mirrors topologies() but is kept separate (and pinned)
// so the regression baseline cannot drift when the simulated-time suite
// evolves.
func perfTopologies(n int) []struct {
	name string
	mk   func() *machine.M
} {
	return []struct {
		name string
		mk   func() *machine.M
	}{
		{"mesh", func() *machine.M {
			return machine.New(mesh.MustNew(dsseq.NextPow4(n), mesh.Proximity))
		}},
		{"hypercube", func() *machine.M {
			return machine.New(hypercube.MustNew(dsseq.NextPow2(n)))
		}},
	}
}

func perfVals(n int) []int {
	r := rand.New(rand.NewSource(1988))
	vals := make([]int, n)
	for i := range vals {
		vals[i] = r.Intn(1 << 20)
	}
	return vals
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// BenchmarkPerf is the pinned suite: every Table-1 primitive × topology
// × n, run steady-state on one warm machine. The op under test reuses
// its register file across iterations (all primitives here are
// idempotent or value-shrinking under min, so the data stays bounded),
// and one untimed warm-up call fills the scratch arena so allocs/op
// measures the steady state, not first-touch growth.
func BenchmarkPerf(b *testing.B) {
	for _, n := range []int{256, 1024} {
		for _, tc := range perfTopologies(n) {
			ops := []struct {
				name string
				run  func(m *machine.M, regs colstore.File[int], seg []bool)
			}{
				{"scan", func(m *machine.M, regs colstore.File[int], seg []bool) {
					machine.ScanCols(m, regs, seg, machine.Forward, minInt)
				}},
				{"semigroup", func(m *machine.M, regs colstore.File[int], seg []bool) {
					machine.SemigroupCols(m, regs, seg, minInt)
				}},
				{"broadcast", func(m *machine.M, regs colstore.File[int], seg []bool) {
					machine.SpreadCols(m, regs, seg)
				}},
				{"sort", func(m *machine.M, regs colstore.File[int], seg []bool) {
					machine.SortCols(m, regs, func(a, b int) bool { return a < b })
				}},
				{"merge", func(m *machine.M, regs colstore.File[int], seg []bool) {
					machine.MergeBlocksCols(m, regs, regs.Len(), func(a, b int) bool { return a < b })
				}},
				{"compact", func(m *machine.M, regs colstore.File[int], seg []bool) {
					machine.CompactCols(m, regs, seg)
				}},
				{"route", func(m *machine.M, regs colstore.File[int], seg []bool) {
					dest := perfDest(regs.Len())
					machine.RouteCols(m, regs, dest)
				}},
				{"shift", func(m *machine.M, regs colstore.File[int], seg []bool) {
					out := machine.ShiftWithinCols(m, regs, regs.Len(), 1)
					machine.PutCols(m, out)
				}},
			}
			for _, op := range ops {
				b.Run(fmt.Sprintf("%s/%s/n=%d", op.name, tc.name, n), func(b *testing.B) {
					m := tc.mk()
					regs := colstore.Scatter(m.Size(), perfVals(m.Size()))
					seg := machine.WholeMachine(m.Size())
					op.run(m, regs, seg) // warm the arena (untimed)
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						op.run(m, regs, seg)
					}
				})
			}
		}
	}
}

// perfDest is the identity permutation: Route's structured-route
// bookkeeping at full occupancy with zero data movement, the pure
// overhead path. Cached per size so the benchmark loop doesn't measure
// its construction.
var perfDestCache = map[int][]int{}

func perfDest(n int) []int {
	if d, ok := perfDestCache[n]; ok {
		return d
	}
	d := make([]int, n)
	for i := range d {
		d[i] = i
	}
	perfDestCache[n] = d
	return d
}

// BenchmarkPerfLargeN pins the scale rows of the columnar core: cheap
// data-movement primitives at n = 64k, 256k and 1M PEs, the regime the
// struct-of-arrays refactor targets. Dense rows run scan and semigroup
// — one host fold per call, the doubling's rounds charged in closed
// form — on a colstore.File in place. All rows run steady-state on a
// warm machine and must hold 0 allocs/op. scripts/bench.sh runs this
// function at its own pinned iteration count (BENCH_TIME_LARGE) so the
// 1M rows stay inside the bench-smoke wall-clock budget.
func BenchmarkPerfLargeN(b *testing.B) {
	for _, n := range []int{1 << 16, 1 << 18, 1 << 20} {
		b.Run(fmt.Sprintf("scan/hypercube/n=%d", n), func(b *testing.B) {
			m := machine.New(hypercube.MustNew(n))
			regs := colstore.Scatter(n, perfVals(n))
			seg := machine.WholeMachine(n)
			machine.ScanCols(m, regs, seg, machine.Forward, minInt)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				machine.ScanCols(m, regs, seg, machine.Forward, minInt)
			}
		})
	}
	const big = 1 << 20
	b.Run(fmt.Sprintf("scan/mesh/n=%d", big), func(b *testing.B) {
		m := machine.New(mesh.MustNew(big, mesh.Proximity))
		regs := colstore.Scatter(big, perfVals(big))
		seg := machine.WholeMachine(big)
		machine.ScanCols(m, regs, seg, machine.Forward, minInt)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			machine.ScanCols(m, regs, seg, machine.Forward, minInt)
		}
	})
	b.Run(fmt.Sprintf("semigroup/hypercube/n=%d", big), func(b *testing.B) {
		m := machine.New(hypercube.MustNew(big))
		regs := colstore.Scatter(big, perfVals(big))
		seg := machine.WholeMachine(big)
		machine.SemigroupCols(m, regs, seg, minInt)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			machine.SemigroupCols(m, regs, seg, minInt)
		}
	})
}

// BenchmarkPerfEndToEnd pins composite workloads whose allocation
// behaviour exercises the arena across primitive boundaries: the
// whole-machine grouping pattern of Table 1 (sort + segmented scan +
// sort), and Theorem 3.2's envelope of 64 random degree-2 curves on the
// MeshPEs/CubePEs machine — every Lemma 3.1 merge level, warm.
func BenchmarkPerfEndToEnd(b *testing.B) {
	for _, n := range []int{64} {
		r := rand.New(rand.NewSource(1988))
		cs := make([]curve.Curve, n)
		for i := range cs {
			cs[i] = curve.NewPoly(poly.New(r.NormFloat64()*3, r.NormFloat64()*3, r.NormFloat64()*3))
		}
		for _, tc := range []struct {
			name string
			mk   func() *machine.M
		}{
			{"mesh", func() *machine.M {
				return machine.New(mesh.MustNew(penvelope.MeshPEs(n, 2), mesh.Proximity))
			}},
			{"hypercube", func() *machine.M {
				return machine.New(hypercube.MustNew(penvelope.CubePEs(n, 2)))
			}},
		} {
			b.Run(fmt.Sprintf("envelope/%s/n=%d", tc.name, n), func(b *testing.B) {
				m := tc.mk()
				if _, err := penvelope.EnvelopeOfCurves(m, cs, pieces.Min); err != nil {
					b.Fatal(err) // also warms the arena (untimed)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := penvelope.EnvelopeOfCurves(m, cs, pieces.Min); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
	for _, n := range []int{1024} {
		for _, tc := range perfTopologies(n) {
			b.Run(fmt.Sprintf("grouping/%s/n=%d", tc.name, n), func(b *testing.B) {
				m := tc.mk()
				regs := colstore.Scatter(m.Size(), perfVals(m.Size()))
				seg := machine.BlockSegments(m.Size(), 16)
				groupOnce := func() {
					machine.SortCols(m, regs, func(a, b int) bool { return a < b })
					machine.ScanCols(m, regs, seg, machine.Forward,
						func(a, b int) int { return a })
					machine.SortCols(m, regs, func(a, b int) bool { return a < b })
				}
				groupOnce() // warm the arena (untimed)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					groupOnce()
				}
			})
		}
	}
}
