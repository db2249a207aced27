// Benchmark harness regenerating every table and figure of the paper's
// evaluation (see DESIGN.md §4 for the experiment index and EXPERIMENTS.md
// for recorded paper-vs-measured results).
//
// The quantity under study is the *simulated parallel time* of each
// algorithm (machine.Stats.Time), reported as the custom metrics
// "simsteps" (and "pieces"/"ratio" where relevant); wall-clock ns/op
// measures the simulator itself, not the 1988 hardware. Run:
//
//	go test -bench=. -benchmem
//	go run ./cmd/tables            # human-readable table reproduction
package dyncg_test

import (
	"fmt"
	"math/rand"
	"testing"

	"dyncg"
	"dyncg/internal/ccc"
	"dyncg/internal/colstore"
	"dyncg/internal/core"
	"dyncg/internal/curve"
	"dyncg/internal/dsseq"
	"dyncg/internal/geom"
	"dyncg/internal/hypercube"
	"dyncg/internal/lockstep"
	"dyncg/internal/machine"
	"dyncg/internal/mesh"
	"dyncg/internal/motion"
	"dyncg/internal/penvelope"
	"dyncg/internal/pgeom"
	"dyncg/internal/pieces"
	"dyncg/internal/pram"
	"dyncg/internal/ratfun"
	"dyncg/internal/shuffle"
)

func topologies(n int) map[string]func() *machine.M {
	return map[string]func() *machine.M{
		"mesh": func() *machine.M {
			return machine.New(mesh.MustNew(dsseq.NextPow4(n), mesh.Proximity))
		},
		"hypercube": func() *machine.M {
			return machine.New(hypercube.MustNew(dsseq.NextPow2(n)))
		},
	}
}

// benchMachine builds a machine of the family with at least n PEs.
func benchMachine(family dyncg.Topology, n int) *machine.M {
	m, err := dyncg.NewMachine(family, n)
	if err != nil {
		panic(err)
	}
	return m
}

func reportSim(b *testing.B, m *machine.M) {
	b.ReportMetric(float64(m.Stats().Time()), "simsteps")
	b.ReportMetric(float64(m.Stats().CommSteps), "commsteps")
}

// --- Table 1: data movement operations -------------------------------------

func BenchmarkTable1(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	for _, n := range []int{256, 1024, 4096} {
		vals := make([]int, n)
		for i := range vals {
			vals[i] = r.Intn(1 << 20)
		}
		for topoName, mk := range topologies(n) {
			ops := map[string]func(m *machine.M){
				"semigroup": func(m *machine.M) {
					regs := colstore.Scatter(n, vals)
					machine.SemigroupCols(m, regs, machine.WholeMachine(n), func(a, b int) int {
						if a < b {
							return a
						}
						return b
					})
				},
				"broadcast": func(m *machine.M) {
					regs := colstore.New[int](n)
					regs.Set(n/3, 42)
					machine.SpreadCols(m, regs, machine.WholeMachine(n))
				},
				"prefix": func(m *machine.M) {
					regs := colstore.Scatter(n, vals)
					machine.ScanCols(m, regs, machine.WholeMachine(n), machine.Forward,
						func(a, b int) int { return a + b })
				},
				"merge": func(m *machine.M) {
					regs := colstore.Scatter(n, vals)
					machine.SortBlocksCols(m, regs, n/2, func(a, b int) bool { return a < b })
					m.Reset()
					machine.MergeBlocksCols(m, regs, n, func(a, b int) bool { return a < b })
				},
				"sort": func(m *machine.M) {
					regs := colstore.Scatter(n, vals)
					machine.SortCols(m, regs, func(a, b int) bool { return a < b })
				},
				"grouping": func(m *machine.M) {
					// Sort-based concurrent read: sort, segment scan, sort back.
					regs := colstore.Scatter(n, vals)
					machine.SortCols(m, regs, func(a, b int) bool { return a < b })
					machine.ScanCols(m, regs, machine.BlockSegments(n, 16), machine.Forward,
						func(a, b int) int { return a })
					machine.SortCols(m, regs, func(a, b int) bool { return a < b })
				},
			}
			for opName, op := range ops {
				b.Run(fmt.Sprintf("%s/%s/n=%d", opName, topoName, n), func(b *testing.B) {
					var last *machine.M
					for i := 0; i < b.N; i++ {
						m := mk()
						op(m)
						last = m
					}
					reportSim(b, last)
				})
			}
		}
	}
}

// --- §3: envelope construction (Theorem 3.2) and C2 (PRAM comparison) ------

func BenchmarkEnvelope(b *testing.B) {
	r := rand.New(rand.NewSource(2))
	for _, n := range []int{64, 256, 1024} {
		cs := make([]curve.Curve, n)
		for i := range cs {
			cs[i] = curve.NewPoly(dyncg.Polynomial(r.NormFloat64()*5, r.NormFloat64(), 0.2+r.Float64()))
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
			b.Run(fmt.Sprintf("theorem32/%s/n=%d", tc.name, n), func(b *testing.B) {
				var last *machine.M
				for i := 0; i < b.N; i++ {
					m := tc.mk()
					env, err := penvelope.EnvelopeOfCurves(m, cs, pieces.Min)
					if err != nil {
						b.Fatal(err)
					}
					b.ReportMetric(float64(len(env)), "pieces")
					last = m
				}
				reportSim(b, last)
			})
			b.Run(fmt.Sprintf("C2-pram-simulated/%s/n=%d", tc.name, n), func(b *testing.B) {
				var last *machine.M
				for i := 0; i < b.N; i++ {
					m := tc.mk()
					pram.Envelope(m, cs, pieces.Min)
					last = m
				}
				reportSim(b, last)
			})
		}
		b.Run(fmt.Sprintf("serial-baseline/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				pieces.EnvelopeOfCurves(cs, pieces.Min)
			}
		})
	}
}

// --- Table 2: transient-behaviour problems ----------------------------------

func BenchmarkTable2(b *testing.B) {
	r := rand.New(rand.NewSource(3))
	for _, n := range []int{32, 128} {
		k := 2
		sys := motion.Random(r, n, k, 2, 8)
		sys3 := motion.Random(r, n, k, 3, 8)
		rows := []struct {
			name string
			s    int // envelope intersection bound for PE sizing
			run  func(m *machine.M) error
		}{
			{"closest-seq", 2 * k, func(m *machine.M) error {
				_, err := core.ClosestPointSequence(m, sys, 0)
				return err
			}},
			{"collisions", 1, func(m *machine.M) error {
				_, err := core.CollisionTimes(m, motion.Converging(r, n), 0)
				return err
			}},
			{"hull-membership", 4*k + 2, func(m *machine.M) error {
				_, err := core.HullVertexIntervals(m, sys, 0)
				return err
			}},
			{"containment", k + 2, func(m *machine.M) error {
				_, err := core.ContainmentIntervals(m, sys3, []float64{12, 12, 12})
				return err
			}},
			{"cube-edge-fn", k + 2, func(m *machine.M) error {
				_, err := core.SmallestHypercubeEdge(m, sys3)
				return err
			}},
			{"smallest-ever", k + 2, func(m *machine.M) error {
				_, _, err := core.SmallestEverHypercube(m, sys3)
				return err
			}},
		}
		for _, row := range rows {
			for _, tc := range []struct {
				name string
				mk   func(s int) *machine.M
			}{
				{"mesh", func(s int) *machine.M { return benchMachine(dyncg.Mesh, penvelope.MeshPEs(n, s)) }},
				{"hypercube", func(s int) *machine.M { return benchMachine(dyncg.Hypercube, penvelope.CubePEs(n, s)) }},
			} {
				b.Run(fmt.Sprintf("%s/%s/n=%d", row.name, tc.name, n), func(b *testing.B) {
					var last *machine.M
					for i := 0; i < b.N; i++ {
						m := tc.mk(row.s)
						if err := row.run(m); err != nil {
							b.Fatal(err)
						}
						last = m
					}
					reportSim(b, last)
				})
			}
		}
	}
}

// --- Table 3: steady-state problems -----------------------------------------

func BenchmarkTable3(b *testing.B) {
	r := rand.New(rand.NewSource(4))
	for _, n := range []int{64, 256} {
		sys := motion.Random(r, n, 1, 2, 8)
		div := motion.Diverging(r, n)
		rows := []struct {
			name string
			size int
			run  func(m *machine.M) error
		}{
			{"nearest-neighbor", n, func(m *machine.M) error {
				_, err := core.SteadyNearestNeighborD(m, sys, 0, false)
				return err
			}},
			{"closest-pair", 4 * n, func(m *machine.M) error {
				_, _, err := core.SteadyClosestPair(m, sys)
				return err
			}},
			{"hull", 8 * n, func(m *machine.M) error {
				_, err := core.SteadyHull(m, sys)
				return err
			}},
			{"farthest-pair", 8 * n, func(m *machine.M) error {
				_, _, _, err := core.SteadyFarthestPair(m, div)
				return err
			}},
			{"min-area-rect", 8 * n, func(m *machine.M) error {
				_, err := core.SteadyMinAreaRect(m, div)
				return err
			}},
		}
		for _, row := range rows {
			for _, tc := range []struct {
				name string
				mk   func(sz int) *machine.M
			}{
				{"mesh", func(sz int) *machine.M { return benchMachine(dyncg.Mesh, sz) }},
				{"hypercube", func(sz int) *machine.M { return benchMachine(dyncg.Hypercube, sz) }},
			} {
				b.Run(fmt.Sprintf("%s/%s/n=%d", row.name, tc.name, n), func(b *testing.B) {
					var last *machine.M
					for i := 0; i < b.N; i++ {
						m := tc.mk(row.size)
						if err := row.run(m); err != nil {
							b.Fatal(err)
						}
						last = m
					}
					reportSim(b, last)
				})
			}
		}
	}
}

// --- Table 4: static algorithms ----------------------------------------------

func BenchmarkTable4(b *testing.B) {
	r := rand.New(rand.NewSource(5))
	for _, n := range []int{64, 256, 1024} {
		pts := make([]geom.Point[ratfun.F64], n)
		for i := range pts {
			pts[i] = geom.Point[ratfun.F64]{
				X: ratfun.F64(r.NormFloat64() * 20), Y: ratfun.F64(r.NormFloat64() * 20), ID: i,
			}
		}
		hull := geom.Hull(pts)
		rows := []struct {
			name string
			run  func(m *machine.M) error
		}{
			{"closest-pair", func(m *machine.M) error {
				pgeom.ClosestPair(m, pts)
				return nil
			}},
			{"convex-hull", func(m *machine.M) error {
				_, err := pgeom.HullStatic(m, pts)
				return err
			}},
			{"antipodal", func(m *machine.M) error {
				pgeom.AntipodalPairs(m, hull)
				return nil
			}},
			{"min-rect", func(m *machine.M) error {
				pgeom.MinAreaRect(m, hull)
				return nil
			}},
		}
		for _, row := range rows {
			for topoName, mk := range topologies(8 * n) {
				b.Run(fmt.Sprintf("%s/%s/n=%d", row.name, topoName, n), func(b *testing.B) {
					var last *machine.M
					for i := 0; i < b.N; i++ {
						m := mk()
						if err := row.run(m); err != nil {
							b.Fatal(err)
						}
						last = m
					}
					reportSim(b, last)
				})
			}
		}
	}
}

// --- C1: λ(n, s) growth (Theorem 2.3) ----------------------------------------

func BenchmarkC1LambdaGrowth(b *testing.B) {
	for _, n := range []int{8, 16, 24} {
		b.Run(fmt.Sprintf("extremal-parabolas/n=%d", n), func(b *testing.B) {
			ps := dsseq.ExtremalParabolas(n)
			cs := make([]curve.Curve, n)
			for i, p := range ps {
				cs[i] = curve.NewPoly(p)
			}
			var got int
			for i := 0; i < b.N; i++ {
				env := pieces.EnvelopeOfCurves(cs, pieces.Min)
				got = len(env)
			}
			b.ReportMetric(float64(got), "pieces")
			b.ReportMetric(float64(dsseq.Lambda(n, 2)), "lambda")
		})
	}
}

// --- C3: steady-state shortcut vs transient tail ------------------------------

func BenchmarkC3SteadyShortcut(b *testing.B) {
	r := rand.New(rand.NewSource(6))
	for _, n := range []int{64, 256} {
		sys := motion.Random(r, n, 1, 2, 8)
		b.Run(fmt.Sprintf("direct/n=%d", n), func(b *testing.B) {
			var last *machine.M
			for i := 0; i < b.N; i++ {
				m := benchMachine(dyncg.Mesh, n)
				if _, err := core.SteadyNearestNeighborD(m, sys, 0, false); err != nil {
					b.Fatal(err)
				}
				last = m
			}
			reportSim(b, last)
		})
		b.Run(fmt.Sprintf("via-transient/n=%d", n), func(b *testing.B) {
			var last *machine.M
			for i := 0; i < b.N; i++ {
				m := benchMachine(dyncg.Mesh, penvelope.MeshPEs(n, 2))
				if _, err := core.SteadyNearestViaTransient(m, sys, 0); err != nil {
					b.Fatal(err)
				}
				last = m
			}
			reportSim(b, last)
		})
	}
}

// --- Ablations (DESIGN.md §6) -------------------------------------------------

// BenchmarkAblationIndexing: mesh indexing scheme vs sort cost (ablation 1).
func BenchmarkAblationIndexing(b *testing.B) {
	n := 4096
	vals := make([]int, n)
	for i := range vals {
		vals[i] = (i * 2654435761) % 1000003
	}
	for _, ix := range []mesh.Indexing{mesh.RowMajor, mesh.ShuffledRowMajor, mesh.Snake, mesh.Proximity} {
		b.Run(ix.String(), func(b *testing.B) {
			var last *machine.M
			for i := 0; i < b.N; i++ {
				m := machine.New(mesh.MustNew(n, ix))
				regs := colstore.Scatter(n, vals)
				machine.SortCols(m, regs, func(a, b int) bool { return a < b })
				last = m
			}
			reportSim(b, last)
		})
	}
}

// BenchmarkAblationRecursionGrain: parallel Theorem 3.2 vs the serial
// divide-and-conquer baseline (ablation 2): simulated steps vs real work.
func BenchmarkAblationRecursionGrain(b *testing.B) {
	r := rand.New(rand.NewSource(7))
	n := 256
	cs := make([]curve.Curve, n)
	for i := range cs {
		cs[i] = curve.NewPoly(dyncg.Polynomial(r.NormFloat64()*5, r.NormFloat64(), 1))
	}
	b.Run("parallel-thm32", func(b *testing.B) {
		var last *machine.M
		for i := 0; i < b.N; i++ {
			m := machine.New(hypercube.MustNew(penvelope.CubePEs(n, 2)))
			if _, err := penvelope.EnvelopeOfCurves(m, cs, pieces.Min); err != nil {
				b.Fatal(err)
			}
			last = m
		}
		reportSim(b, last)
	})
	b.Run("serial-dnc", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			pieces.EnvelopeOfCurves(cs, pieces.Min)
		}
	})
}

// BenchmarkAblationAllocationMargin: smallest machine size at which the
// one-piece-per-PE envelope construction fits (ablation 4): reports the
// measured margin over λ(n, s).
func BenchmarkAblationAllocationMargin(b *testing.B) {
	r := rand.New(rand.NewSource(8))
	n := 128
	cs := make([]curve.Curve, n)
	for i := range cs {
		cs[i] = curve.NewPoly(dyncg.Polynomial(r.NormFloat64()*5, r.NormFloat64(), 0.3+r.Float64()))
	}
	b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
		smallest := 0
		for i := 0; i < b.N; i++ {
			size := dsseq.NextPow2(dsseq.Lambda(n, 2))
			for {
				m := machine.New(hypercube.MustNew(size))
				if _, err := penvelope.EnvelopeOfCurves(m, cs, pieces.Min); err == nil {
					break
				}
				size *= 2
			}
			smallest = size
		}
		b.ReportMetric(float64(smallest), "minPEs")
		b.ReportMetric(float64(dsseq.Lambda(n, 2)), "lambda")
	})
}

// --- Figures -------------------------------------------------------------------

// BenchmarkFigure2 renders the four indexing schemes of Figure 2.
func BenchmarkFigure2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, ix := range []mesh.Indexing{mesh.RowMajor, mesh.ShuffledRowMajor, mesh.Snake, mesh.Proximity} {
			mesh.MustNew(16, ix).Render()
		}
	}
}

// BenchmarkFigure4 reconstructs the min-function example of Figure 4.
func BenchmarkFigure4(b *testing.B) {
	cs := []curve.Curve{
		curve.NewPoly(dyncg.Polynomial(6, -0.5)),
		curve.NewPoly(dyncg.Polynomial(0, 1)),
		curve.NewPoly(dyncg.Polynomial(2)),
	}
	var env pieces.Piecewise
	for i := 0; i < b.N; i++ {
		env = pieces.EnvelopeOfCurves(cs, pieces.Min)
	}
	b.ReportMetric(float64(len(env)), "pieces")
}

// --- §6 extension: pair sequences --------------------------------------------

func BenchmarkSection6PairSequence(b *testing.B) {
	r := rand.New(rand.NewSource(9))
	for _, n := range []int{8, 16, 32} {
		sys := motion.Random(r, n, 1, 2, 6)
		pairs := core.PairSequencePEs(n, 1)
		for _, tc := range []struct {
			name string
			mk   func() *machine.M
		}{
			{"mesh", func() *machine.M { return benchMachine(dyncg.Mesh, penvelope.MeshPEs(pairs, 2)) }},
			{"hypercube", func() *machine.M { return benchMachine(dyncg.Hypercube, penvelope.CubePEs(pairs, 2)) }},
		} {
			b.Run(fmt.Sprintf("closest-pairs/%s/n=%d", tc.name, n), func(b *testing.B) {
				var last *machine.M
				for i := 0; i < b.N; i++ {
					m := tc.mk()
					if _, err := core.ClosestPairSequence(m, sys); err != nil {
						b.Fatal(err)
					}
					last = m
				}
				reportSim(b, last)
			})
		}
	}
}

// --- Lock-step goroutine runtime fidelity -------------------------------------

// BenchmarkLockstepShearsort measures the goroutine-per-PE 2-D mesh sort
// (wall-clock: real concurrent PEs) against the vector simulator's
// bitonic sort (simulated steps) on the same data.
func BenchmarkLockstepShearsort(b *testing.B) {
	r := rand.New(rand.NewSource(10))
	for _, side := range []int{4, 8} {
		n := side * side
		vals := make([]int, n)
		for i := range vals {
			vals[i] = r.Intn(10000)
		}
		b.Run(fmt.Sprintf("goroutines/side=%d", side), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := lockstep.ShearSort(side, append([]int{}, vals...)); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("simulator/side=%d", side), func(b *testing.B) {
			var last *machine.M
			for i := 0; i < b.N; i++ {
				m := machine.New(mesh.MustNew(n, mesh.Proximity))
				regs := colstore.Scatter(n, vals)
				machine.SortCols(m, regs, func(a, b int) bool { return a < b })
				last = m
			}
			reportSim(b, last)
		})
	}
}

// --- Cross-topology: mesh vs hypercube vs cube-connected cycles ----------------

// BenchmarkCrossTopology runs the Theorem 3.2 envelope on all three
// machine.Topology implementations, including the intro's suggested
// cube-connected cycles, at equal PE counts.
func BenchmarkCrossTopology(b *testing.B) {
	r := rand.New(rand.NewSource(11))
	n := 16 // functions; machines of 2048 PEs
	cs := make([]curve.Curve, n)
	for i := range cs {
		cs[i] = curve.NewPoly(dyncg.Polynomial(r.NormFloat64()*4, r.NormFloat64(), 0.3+r.Float64()))
	}
	for _, tc := range []struct {
		name string
		topo machine.Topology
	}{
		{"mesh", mesh.MustNew(4096, mesh.Proximity)},
		{"hypercube", hypercube.MustNew(2048)},
		{"ccc", ccc.MustNew(8)},
		{"shuffle-exchange", shuffle.MustNew(11)},
	} {
		b.Run(tc.name, func(b *testing.B) {
			var last *machine.M
			for i := 0; i < b.N; i++ {
				m := machine.New(tc.topo)
				if _, err := penvelope.EnvelopeOfCurves(m, cs, pieces.Min); err != nil {
					b.Fatal(err)
				}
				last = m
			}
			reportSim(b, last)
		})
	}
}
