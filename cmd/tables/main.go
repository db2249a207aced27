// Command tables regenerates, in human-readable form, every table and
// figure of the paper's evaluation (Tables 1–4, Figures 1–4) plus the
// in-text comparisons C1–C4 (see DESIGN.md §4 for the index). For each
// table row it prints the measured simulated parallel time across machine
// sizes together with the paper's claimed Θ-bound, so the growth shape
// can be read off directly.
//
// Usage:
//
//	go run ./cmd/tables             # everything
//	go run ./cmd/tables -table 2    # just Table 2
//	go run ./cmd/tables -figure 2   # just Figure 2
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"

	"dyncg/internal/algo"
	"dyncg/internal/api"
	"dyncg/internal/colstore"
	"dyncg/internal/core"
	"dyncg/internal/curve"
	"dyncg/internal/dsseq"
	"dyncg/internal/fault"
	"dyncg/internal/geom"
	"dyncg/internal/hypercube"
	"dyncg/internal/machine"
	"dyncg/internal/mesh"
	"dyncg/internal/motion"
	"dyncg/internal/penvelope"
	"dyncg/internal/pgeom"
	"dyncg/internal/pieces"
	"dyncg/internal/poly"
	"dyncg/internal/pram"
	"dyncg/internal/ratfun"
	"dyncg/internal/topo"
	"dyncg/internal/trace"
)

var (
	tableFlag  = flag.Int("table", 0, "print only this table (1-4)")
	figureFlag = flag.Int("figure", 0, "print only this figure (1-4)")
	compFlag   = flag.Int("comparison", 0, "print only this comparison (1-4)")
	seed       = flag.Int64("seed", 1988, "workload RNG seed")
	jsonOut    = flag.Bool("json", false, "write BENCH_tables.json (one record per table cell, with claimed-bound ratios)")
	traceDir   = flag.String("trace-dir", "", "write a Chrome trace per table row (at the largest n) into this directory")
	faultsFlag = flag.String("faults", "", "transient fault spec applied to every table cell, e.g. transient=0.02,retries=3; answers are unchanged, measured times grow (fail= is rejected here — permanent failures need the recovery harness, use cmd/dyncg)")
	faultSeed  = flag.Int64("fault-seed", 1, "fault schedule RNG seed")
	cpuProf    = flag.String("cpuprofile", "", "write a CPU profile of the run to this file (go tool pprof)")
	memProf    = flag.String("memprofile", "", "write a heap allocation profile to this file at exit (go tool pprof)")
)

func main() {
	flag.Parse()
	spec, err := fault.ParseSpec(*faultsFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tables:", err)
		os.Exit(1)
	}
	if spec.Fail > 0 {
		fmt.Fprintln(os.Stderr, "tables: -faults fail= needs the remap-and-rerun recovery harness; use cmd/dyncg for permanent PE failures")
		os.Exit(1)
	}
	if !spec.Zero() {
		fmt.Printf("fault injection on every table cell: %s (seed %d)\n", spec, *faultSeed)
	}
	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintln(os.Stderr, "tables:", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "tables:", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fmt.Fprintln(os.Stderr, "tables:", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle the heap so the profile shows live data
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "tables:", err)
			}
		}()
	}
	all := *tableFlag == 0 && *figureFlag == 0 && *compFlag == 0
	if all || *figureFlag == 1 {
		figure1()
	}
	if all || *figureFlag == 2 {
		figure2()
	}
	if all || *figureFlag == 3 {
		figure3()
	}
	if all || *figureFlag == 4 {
		figure4()
	}
	if all || *tableFlag == 1 {
		table1()
	}
	if all || *tableFlag == 2 {
		table2()
	}
	if all || *tableFlag == 3 {
		table3()
	}
	if all || *tableFlag == 4 {
		table4()
	}
	if all || *compFlag == 1 {
		comparison1()
	}
	if all || *compFlag == 2 {
		comparison2()
	}
	if all || *compFlag == 3 {
		comparison3()
	}
	if all || *compFlag == 4 {
		comparison4()
	}
	if *jsonOut {
		writeBenchJSON()
	}
}

// benchRecord is one (row, topology, n) measurement of BENCH_tables.json.
// The shape is the shared wire schema api.BenchRecord, pinned by the
// golden-file tests in internal/api alongside the server's v1 envelopes.
type benchRecord = api.BenchRecord

var benchRecords []benchRecord

func writeBenchJSON() {
	const path = "BENCH_tables.json"
	b, err := json.MarshalIndent(benchRecords, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "tables:", err)
		os.Exit(1)
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "tables:", err)
		os.Exit(1)
	}
	fmt.Printf("\n%d records written to %s\n", len(benchRecords), path)
}

// Tracing hook for -trace-dir: printTable arms the hook before a run it
// wants traced; the first machine the row builds (via machineOf) gets
// the tracer.
var (
	armLabel  string
	armTracer *trace.Tracer
	armM      *machine.M
)

func maybeTrace(m *machine.M) *machine.M {
	if armLabel != "" && armTracer == nil {
		armTracer = trace.Attach(m, armLabel)
		armM = m
	}
	return m
}

func finishTrace(table, id, topo string) {
	armLabel = ""
	if armTracer == nil {
		return
	}
	root := armTracer.Finish()
	m := armM
	armTracer, armM = nil, nil
	path := filepath.Join(*traceDir, fmt.Sprintf("%s_%s_%s.json", table, id, topo))
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tables:", err)
		os.Exit(1)
	}
	if err := trace.WriteChrome(f, root, m); err != nil {
		fmt.Fprintln(os.Stderr, "tables:", err)
		os.Exit(1)
	}
	if err := f.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "tables:", err)
		os.Exit(1)
	}
}

func header(s string) { fmt.Printf("\n================ %s ================\n", s) }

// row is one table row: a problem plus, per topology, a runner returning
// the simulated time on a machine sized for n, and the claimed Θ-bound
// both as display text and as an evaluator (for BENCH_tables.json ratios).
type row struct {
	name  string
	id    string
	claim string
	bound func(n int, topo string) float64
	run   func(n int, topo string) (int64, error)
}

// bnd pairs a mesh bound with a hypercube bound.
func bnd(mesh, cube func(n int) float64) func(n int, topo string) float64 {
	return func(n int, topo string) float64 {
		if topo == "mesh" {
			return mesh(n)
		}
		return cube(n)
	}
}

func sqrtN(n int) float64 { return math.Sqrt(float64(n)) }
func logN(n int) float64  { return math.Log2(float64(n)) }
func log2N(n int) float64 { l := math.Log2(float64(n)); return l * l }

// lamHalf evaluates the mesh bound λ^{1/2}(n−off, s).
func lamHalf(off, s int) func(n int) float64 {
	return func(n int) float64 { return math.Sqrt(float64(dsseq.LambdaBound(n-off, s))) }
}

func printTable(table string, sizes []int, rows []row) {
	fmt.Printf("%-24s %-10s", "problem", "machine")
	for _, n := range sizes {
		fmt.Printf(" %12s", fmt.Sprintf("n=%d", n))
	}
	fmt.Printf("  %s\n", "claimed bound")
	for _, rw := range rows {
		for _, topo := range []string{"mesh", "hypercube"} {
			fmt.Printf("%-24s %-10s", rw.name, topo)
			for _, n := range sizes {
				wantTrace := *traceDir != "" && n == sizes[len(sizes)-1]
				if wantTrace {
					armLabel = fmt.Sprintf("%s/%s/%s", table, rw.id, topo)
				}
				t, err := rw.run(n, topo)
				if wantTrace {
					finishTrace(table, rw.id, topo)
				}
				if err != nil {
					fmt.Printf(" %12s", "err")
					continue
				}
				fmt.Printf(" %12d", t)
				if *jsonOut {
					b := rw.bound(n, topo)
					benchRecords = append(benchRecords, benchRecord{
						Table: table, ID: rw.id, Problem: rw.name,
						Topology: topo, N: n, SimTime: t,
						Claim: rw.claim, Bound: b, Ratio: float64(t) / b,
					})
				}
			}
			fmt.Printf("  %s\n", rw.claim)
		}
	}
}

// newMachine builds a machine of the family with at least n PEs.
func newMachine(family string, n int, opts ...topo.Option) *machine.M {
	m, err := topo.NewMachine(topo.Topology(family), n, opts...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tables:", err)
		os.Exit(1)
	}
	return m
}

// machineOf builds a table cell's machine with at least n PEs. Every
// cell gets its own plan from -faults (same seed, so every cell sees the
// same deterministic schedule relative to its own round stream), and the
// armed tracer if any. Figures and the C1–C4 comparisons build their
// machines with newMachine directly and stay fault-free.
func machineOf(n int, family string) *machine.M {
	return maybeTrace(newMachine(family, n, topo.WithFaultPlan(*faultsFlag, *faultSeed)))
}

// plainMachine is newMachine with no options: the fault-free, untraced
// machine of the C1–C4 comparisons.
func plainMachine(n int, family string) *machine.M { return newMachine(family, n) }

// runAlgo runs the internal/algo entry name — the algorithm the daemon
// serves as POST /v1/<name> and cmd/dyncg runs as -algo <name> — for sys
// with the request's parameters, on a machine of the family that mk
// builds with the entry's prescribed PE count. The table therefore sizes
// and runs every served algorithm exactly as the daemon does.
func runAlgo(name, family string, sys *motion.System, req *api.Request, mk func(n int, family string) *machine.M) (*machine.M, any, error) {
	alg, ok := algo.Lookup(name)
	if !ok {
		panic(fmt.Sprintf("tables: %q is not a served algorithm", name))
	}
	m := mk(alg.PEs(family, sys), family)
	res, err := alg.Run(m, sys, req)
	return m, res, err
}

// served is a table row's runner for the internal/algo entry name: each
// cell runs it for systems[n] on a machineOf machine, so -faults and
// -trace-dir apply.
func served(name string, systems map[int]*motion.System, req *api.Request) func(n int, topo string) (int64, error) {
	return func(n int, topo string) (int64, error) {
		m, _, err := runAlgo(name, topo, systems[n], req, machineOf)
		return m.Stats().Time(), err
	}
}

// ---------------------------------------------------------------- figures

func figure1() {
	header("Figure 1: a mesh computer of size 16 (proximity order)")
	m := mesh.MustNew(16, mesh.Proximity)
	fmt.Print(m.Render())
	fmt.Printf("communication diameter: %d = 2(√n − 1)\n", m.Diameter())
}

func figure2() {
	header("Figure 2: indexing schemes for a mesh of size 16")
	for _, ix := range []mesh.Indexing{mesh.RowMajor, mesh.ShuffledRowMajor, mesh.Snake, mesh.Proximity} {
		fmt.Printf("--- %s ---\n%s", ix, mesh.MustNew(16, ix).Render())
	}
}

func figure3() {
	header("Figure 3: hypercubes of size 2, 4, 8 (Gray-code labels)")
	for _, n := range []int{2, 4, 8} {
		c := hypercube.MustNew(n)
		fmt.Printf("size %d: label(node): ", n)
		for j := 0; j < n; j++ {
			fmt.Printf("%d(%0*b) ", j, c.Dim(), c.Node(j))
		}
		fmt.Println()
	}
}

func figure4() {
	header("Figure 4: pieces of min{f, g, h}")
	cs := []curve.Curve{
		curve.NewPoly(poly.New(6, -0.5)), // f: eventually smallest
		curve.NewPoly(poly.New(0, 1)),    // g: smallest near 0
		curve.NewPoly(poly.New(2)),       // h: smallest in between
	}
	env := pieces.EnvelopeOfCurves(cs, pieces.Min)
	names := []string{"f", "g", "h"}
	for _, p := range env {
		hi := "∞"
		if !math.IsInf(p.Hi, 1) {
			hi = fmt.Sprintf("%.3g", p.Hi)
		}
		fmt.Printf("  (%s(t), [%.3g, %s])\n", names[p.ID], p.Lo, hi)
	}
}

// ---------------------------------------------------------------- Table 1

func table1() {
	header("Table 1: data movement operations (measured simulated time)")
	r := rand.New(rand.NewSource(*seed))
	sizes := []int{64, 256, 1024, 4096}
	// Pre-generate one workload per machine size (machineOf yields exactly
	// n PEs for these power-of-4 sizes on both topologies); every row reads
	// the same values. Scatter copies the values, so reuse across rows is
	// safe.
	valsOf := map[int][]int{}
	for _, n := range sizes {
		vals := make([]int, n)
		for i := range vals {
			vals[i] = r.Intn(1 << 20)
		}
		valsOf[n] = vals
	}
	mkVals := func(n int) []int { return valsOf[n] }
	rows := []row{
		{"semigroup", "semigroup", "Θ(√n) / Θ(log n)", bnd(sqrtN, logN), func(n int, topo string) (int64, error) {
			m := machineOf(n, topo)
			regs := colstore.Scatter(m.Size(), mkVals(m.Size()))
			machine.SemigroupCols(m, regs, machine.WholeMachine(m.Size()), func(a, b int) int {
				if a < b {
					return a
				}
				return b
			})
			return m.Stats().Time(), nil
		}},
		{"broadcast", "broadcast", "Θ(√n) / Θ(log n)", bnd(sqrtN, logN), func(n int, topo string) (int64, error) {
			m := machineOf(n, topo)
			regs := colstore.New[int](m.Size())
			regs.Set(m.Size()/3, 1)
			machine.SpreadCols(m, regs, machine.WholeMachine(m.Size()))
			return m.Stats().Time(), nil
		}},
		{"parallel prefix", "prefix", "Θ(√n) / Θ(log n)", bnd(sqrtN, logN), func(n int, topo string) (int64, error) {
			m := machineOf(n, topo)
			regs := colstore.Scatter(m.Size(), mkVals(m.Size()))
			machine.ScanCols(m, regs, machine.WholeMachine(m.Size()), machine.Forward,
				func(a, b int) int { return a + b })
			return m.Stats().Time(), nil
		}},
		{"merging", "merge", "Θ(√n) / Θ(log n)", bnd(sqrtN, logN), func(n int, topo string) (int64, error) {
			m := machineOf(n, topo)
			regs := colstore.Scatter(m.Size(), mkVals(m.Size()))
			machine.SortBlocksCols(m, regs, m.Size()/2, func(a, b int) bool { return a < b })
			m.Reset()
			machine.MergeBlocksCols(m, regs, m.Size(), func(a, b int) bool { return a < b })
			return m.Stats().Time(), nil
		}},
		{"sorting", "sort", "Θ(√n) / Θ(log² n)", bnd(sqrtN, log2N), func(n int, topo string) (int64, error) {
			m := machineOf(n, topo)
			regs := colstore.Scatter(m.Size(), mkVals(m.Size()))
			machine.SortCols(m, regs, func(a, b int) bool { return a < b })
			return m.Stats().Time(), nil
		}},
		{"grouping", "group", "Θ(√n) / Θ(log² n)", bnd(sqrtN, log2N), func(n int, topo string) (int64, error) {
			m := machineOf(n, topo)
			regs := colstore.Scatter(m.Size(), mkVals(m.Size()))
			machine.SortCols(m, regs, func(a, b int) bool { return a < b })
			machine.ScanCols(m, regs, machine.BlockSegments(m.Size(), 16), machine.Forward,
				func(a, b int) int { return a })
			machine.SortCols(m, regs, func(a, b int) bool { return a < b })
			return m.Stats().Time(), nil
		}},
	}
	printTable("table1", sizes, rows)
}

// ---------------------------------------------------------------- Table 2

func table2() {
	header("Table 2: transient behaviour problems (measured simulated time)")
	printTable("table2", table2Sizes, table2Rows())
}

var table2Sizes = []int{16, 64, 256}

// table2Rows are the Table 2 rows, each a served algorithm run on random
// k=2 systems (planar, or 3-D for the hyper-rectangle problems) and on
// converging systems for the collision times.
func table2Rows() []row {
	r := rand.New(rand.NewSource(*seed))
	k := 2
	sys2 := map[int]*motion.System{}
	sys3 := map[int]*motion.System{}
	conv := map[int]*motion.System{}
	for _, n := range table2Sizes {
		sys2[n] = motion.Random(r, n, k, 2, 8)
		sys3[n] = motion.Random(r, n, k, 3, 8)
		conv[n] = motion.Converging(r, n)
	}
	req := &api.Request{}
	box := &api.Request{Dims: []float64{12, 12, 12}}
	return []row{
		{"closest-point sequence", "closest-seq", "Θ(λ^½(n−1,2k)) / Θ(log² n)", bnd(lamHalf(1, 2*k), log2N),
			served("closest-point-sequence", sys2, req)},
		{"collision times", "collisions", "Θ(n^½) / Θ(log² n)", bnd(sqrtN, log2N),
			served("collision-times", conv, req)},
		{"hull-vertex intervals", "hull-member", "Θ(λ^½(n,4k)) / Θ(log² n)", bnd(lamHalf(0, 4*k), log2N),
			served("hull-vertex-intervals", sys2, req)},
		{"containment intervals", "containment", "Θ(λ^½(n,k)) / Θ(log² n)", bnd(lamHalf(0, k), log2N),
			served("containment-intervals", sys3, box)},
		{"cube edgelength fn", "cube-edge", "Θ(λ^½(n,k)) / Θ(log² n)", bnd(lamHalf(0, k), log2N),
			served("smallest-hypercube-edge", sys3, req)},
		{"smallest-ever cube", "smallest-cube", "Θ(λ^½(n,k)) / Θ(log² n)", bnd(lamHalf(0, k), log2N),
			served("smallest-ever-hypercube", sys3, req)},
	}
}

// ---------------------------------------------------------------- Table 3

func table3() {
	header("Table 3: steady-state problems (measured simulated time)")
	printTable("table3", table3Sizes, table3Rows())
}

var table3Sizes = []int{64, 256, 1024}

// table3Rows are the Table 3 rows, each a served algorithm run on random
// linear planar systems, and on diverging ones for the rows that need a
// hull of several vertices.
func table3Rows() []row {
	r := rand.New(rand.NewSource(*seed))
	sys := map[int]*motion.System{}
	div := map[int]*motion.System{}
	for _, n := range table3Sizes {
		sys[n] = motion.Random(r, n, 1, 2, 8)
		div[n] = motion.Diverging(r, n)
	}
	req := &api.Request{}
	return []row{
		{"nearest neighbour", "steady-nn", "Θ(√n) / Θ(log n)", bnd(sqrtN, logN),
			served("steady-nearest-neighbor", sys, req)},
		{"closest pair", "steady-cp", "Θ(√n) / Θ(log² n)", bnd(sqrtN, log2N),
			served("steady-closest-pair", sys, req)},
		{"ordered hull(S)", "steady-hull", "Θ(√n) / Θ(log² n)", bnd(sqrtN, log2N),
			served("steady-hull", sys, req)},
		{"farthest pair", "steady-farthest", "Θ(√n) / Θ(log² n)", bnd(sqrtN, log2N),
			served("steady-farthest-pair", div, req)},
		{"min-area rectangle", "steady-rect", "Θ(√n) / Θ(log² n)", bnd(sqrtN, log2N),
			served("steady-min-area-rect", div, req)},
	}
}

// ---------------------------------------------------------------- Table 4

func table4() {
	header("Table 4: static algorithms (measured simulated time)")
	r := rand.New(rand.NewSource(*seed))
	sizes := []int{64, 256, 1024}
	ptsOf := map[int][]geom.Point[ratfun.F64]{}
	hullOf := map[int][]geom.Point[ratfun.F64]{}
	for _, n := range sizes {
		pts := make([]geom.Point[ratfun.F64], n)
		for i := range pts {
			pts[i] = geom.Point[ratfun.F64]{
				X: ratfun.F64(r.NormFloat64() * 20), Y: ratfun.F64(r.NormFloat64() * 20), ID: i,
			}
		}
		ptsOf[n] = pts
		hullOf[n] = geom.Hull(pts)
	}
	rows := []row{
		{"closest pair", "static-cp", "Θ(√n) / Θ(log² n)", bnd(sqrtN, log2N), func(n int, topo string) (int64, error) {
			m := machineOf(4*n, topo)
			pgeom.ClosestPair(m, ptsOf[n])
			return m.Stats().Time(), nil
		}},
		{"convex hull", "static-hull", "Θ(√n) / Θ(log² n)", bnd(sqrtN, log2N), func(n int, topo string) (int64, error) {
			m := machineOf(8*n, topo)
			_, err := pgeom.HullStatic(m, ptsOf[n])
			return m.Stats().Time(), err
		}},
		{"antipodal vertices", "antipodal", "Θ(√n) / Θ(log² n)", bnd(sqrtN, log2N), func(n int, topo string) (int64, error) {
			m := machineOf(8*n, topo)
			pgeom.AntipodalPairs(m, hullOf[n])
			return m.Stats().Time(), nil
		}},
		{"min enclosing rect", "static-rect", "Θ(√n) / Θ(log² n)", bnd(sqrtN, log2N), func(n int, topo string) (int64, error) {
			m := machineOf(8*n, topo)
			pgeom.MinAreaRect(m, hullOf[n])
			return m.Stats().Time(), nil
		}},
	}
	printTable("table4", sizes, rows)
}

// ----------------------------------------------------------- comparisons

func comparison1() {
	header("C1: λ(n, s) growth (Theorem 2.3)")
	fmt.Printf("%8s %10s %10s %12s %14s\n", "n", "λ(n,1)=n", "λ(n,2)", "pieces(s=1)", "pieces(s=2)")
	for _, n := range []int{4, 8, 16, 24} {
		lines := dsseq.SortedLines(n)
		cs1 := make([]curve.Curve, n)
		for i, p := range lines {
			cs1[i] = curve.NewPoly(p)
		}
		parabolas := dsseq.ExtremalParabolas(n)
		cs2 := make([]curve.Curve, n)
		for i, p := range parabolas {
			cs2[i] = curve.NewPoly(p)
		}
		e1 := pieces.EnvelopeOfCurves(cs1, pieces.Min)
		e2 := pieces.EnvelopeOfCurves(cs2, pieces.Min)
		fmt.Printf("%8d %10d %10d %12d %14d\n",
			n, dsseq.Lambda(n, 1), dsseq.Lambda(n, 2), len(e1), len(e2))
	}
	fmt.Printf("α(n) ≤ %d for every machine-representable n (Hart–Sharir)\n",
		dsseq.InverseAckermann(1<<62))
}

func comparison2() {
	header("C2: Theorem 3.2 envelope vs direct CREW-PRAM simulation (§1, §6)")
	r := rand.New(rand.NewSource(*seed))
	fmt.Printf("%8s %-10s %14s %14s %8s\n", "n", "machine", "thm 3.2", "PRAM-sim", "ratio")
	for _, n := range []int{64, 256, 1024} {
		cs := make([]curve.Curve, n)
		for i := range cs {
			cs[i] = curve.NewPoly(poly.New(r.NormFloat64()*5, r.NormFloat64(), 0.2+r.Float64()))
		}
		for _, family := range []string{"mesh", "hypercube"} {
			m1 := newMachine(family, penvelope.PEs(family, n, 2))
			m2 := newMachine(family, penvelope.PEs(family, n, 2))
			if _, err := penvelope.EnvelopeOfCurves(m1, cs, pieces.Min); err != nil {
				fmt.Println("error:", err)
				continue
			}
			pram.Envelope(m2, cs, pieces.Min)
			t1, t2 := m1.Stats().Time(), m2.Stats().Time()
			fmt.Printf("%8d %-10s %14d %14d %8.2f\n", n, family, t1, t2, float64(t2)/float64(t1))
		}
	}
	fmt.Println("claim: mesh ratio grows like Θ(log n); hypercube like Θ(log n)")
}

func comparison3() {
	header("C3: direct steady-state nearest neighbour vs transient tail (§5 intro)")
	r := rand.New(rand.NewSource(*seed))
	fmt.Printf("%8s %14s %14s %8s\n", "n", "direct", "via Thm 4.1", "ratio")
	for _, n := range []int{64, 256, 1024} {
		sys := motion.Random(r, n, 1, 2, 8)
		m1, _, err := runAlgo("steady-nearest-neighbor", "mesh", sys, &api.Request{}, plainMachine)
		if err != nil {
			fmt.Println("error:", err)
			continue
		}
		m2 := newMachine("mesh", penvelope.MeshPEs(n, 2))
		if _, err := core.SteadyNearestViaTransient(m2, sys, 0); err != nil {
			fmt.Println("error:", err)
			continue
		}
		t1, t2 := m1.Stats().Time(), m2.Stats().Time()
		fmt.Printf("%8d %14d %14d %8.1f\n", n, t1, t2, float64(t2)/float64(t1))
	}
	fmt.Println("claim: the direct Θ(√n) algorithm beats the Θ(λ^½(n,2k))-time sequence")
}

func comparison4() {
	header("C4: §6 extension — closest-pair sequences on λ(n(n−1)/2, 2k) PEs")
	r := rand.New(rand.NewSource(*seed))
	fmt.Printf("%8s %10s %12s %12s %10s\n", "n", "pairs", "mesh", "hypercube", "events")
	for _, n := range []int{8, 16, 32} {
		sys := motion.Random(r, n, 1, 2, 8)
		mm, seq, err := runAlgo("closest-pair-sequence", "mesh", sys, &api.Request{}, plainMachine)
		if err != nil {
			fmt.Println("error:", err)
			continue
		}
		hc, _, err := runAlgo("closest-pair-sequence", "hypercube", sys, &api.Request{}, plainMachine)
		if err != nil {
			fmt.Println("error:", err)
			continue
		}
		fmt.Printf("%8d %10d %12d %12d %10d\n",
			n, n*(n-1)/2, mm.Stats().Time(), hc.Stats().Time(), len(seq.([]api.PairEvent)))
	}
	fmt.Println("claim: Θ(λ^½(n(n−1)/2, 2k)) mesh / Θ(log² n) hypercube")
}
