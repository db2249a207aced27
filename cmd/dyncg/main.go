// Command dyncg runs any of the paper's algorithms on a generated
// workload and reports the answer together with the simulated parallel
// running time on the chosen machine.
//
// Every run goes through the fault-injection harness (internal/fault):
// with no -faults spec it degenerates to a single clean attempt, and
// with one it injects seeded transient link faults (charged retries)
// and permanent PE failures (remap onto the largest healthy submachine
// and re-run). Answers are bit-identical either way; only the charged
// simulated time grows.
//
// Examples:
//
//	go run ./cmd/dyncg -algo closest -n 32 -k 2
//	go run ./cmd/dyncg -algo collisions -workload converging -n 24 -topo mesh
//	go run ./cmd/dyncg -algo hullmember -n 12 -origin 3
//	go run ./cmd/dyncg -algo containment -d 3 -dims 12,12,12
//	go run ./cmd/dyncg -algo steady-hull -workload diverging -n 64
//	go run ./cmd/dyncg -algo closest -faults transient=0.05,fail=1 -fault-seed 7
package main

import (
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"

	"dyncg"
	"dyncg/internal/core"
	"dyncg/internal/fault"
	"dyncg/internal/machine"
	"dyncg/internal/motion"
	"dyncg/internal/penvelope"
	"dyncg/internal/pieces"
	"dyncg/internal/poly"
	"dyncg/internal/trace"
)

var (
	algo      = flag.String("algo", "closest", "algorithm: closest|farthest|collisions|hullmember|containment|cube-edge|smallest-cube|steady-nn|steady-cp|steady-hull|steady-farthest|steady-rect")
	n         = flag.Int("n", 16, "number of moving points; the columnar core scales past machines of 1<<20 PEs (see README, Scale)")
	k         = flag.Int("k", 1, "motion degree bound")
	d         = flag.Int("d", 2, "dimension (planar algorithms need 2)")
	topoName  = flag.String("topo", "hypercube", "machine topology: mesh|hypercube|ccc|shuffle")
	workload  = flag.String("workload", "random", "workload: random|converging|diverging|circle")
	origin    = flag.Int("origin", 0, "query point index")
	dims      = flag.String("dims", "10,10", "hyper-rectangle side lengths (containment)")
	seed      = flag.Int64("seed", 1, "RNG seed")
	traceOut  = flag.String("trace", "", "write a Chrome trace-event JSON file for the run")
	costTree  = flag.Bool("costtree", false, "print the per-span cost-attribution tree after the run")
	costDepth = flag.Int("costdepth", 0, "cost tree depth limit (0 = unlimited)")
	faults    = flag.String("faults", "", "fault spec, e.g. transient=0.05,retries=3,fail=1,gap=50 (empty = no faults)")
	faultSeed = flag.Int64("fault-seed", 1, "fault schedule RNG seed (same seed = same schedule)")
	cpuProf   = flag.String("cpuprofile", "", "write a CPU profile of the run to this file (go tool pprof)")
	memProf   = flag.String("memprofile", "", "write a heap allocation profile to this file at exit (go tool pprof)")
)

// topoOf returns a network of the requested family with at least pes
// PEs (the Θ(n)-PE algorithms: Theorem 4.2 and all of §5), through the
// facade's topology registry.
func topoOf(pes int) machine.Topology {
	topo, err := dyncg.ParseTopology(*topoName)
	check(err)
	net, err := dyncg.NewNetwork(topo, pes)
	check(err)
	return net
}

// topoFor sizes the machine by the envelope bound λ(n, s) (the Θ(λ(n,s))-PE
// transient algorithms of §4), matching core.MeshFor/CubeFor.
func topoFor(points, s int) machine.Topology {
	if *topoName == "mesh" {
		return topoOf(penvelope.MeshPEs(points, s))
	}
	return topoOf(penvelope.CubePEs(points, s))
}

func main() {
	flag.Parse()
	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		check(err)
		check(pprof.StartCPUProfile(f))
		defer pprof.StopCPUProfile()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			check(err)
			defer f.Close()
			runtime.GC() // settle the heap so the profile shows live data
			check(pprof.WriteHeapProfile(f))
		}()
	}
	r := rand.New(rand.NewSource(*seed))
	var sys *motion.System
	switch *workload {
	case "random":
		sys = motion.Random(r, *n, *k, *d, 10)
	case "converging":
		sys = motion.Converging(r, *n)
	case "diverging":
		sys = motion.Diverging(r, *n)
	case "circle":
		sys = motion.OnCircle(*n, 10)
	default:
		fatal("unknown workload %q", *workload)
	}
	fmt.Printf("workload: %s, n=%d, k=%d, d=%d, machine=%s\n",
		*workload, sys.N(), sys.K, sys.D, *topoName)

	spec, err := fault.ParseSpec(*faults)
	check(err)
	var plan *fault.Plan
	if !spec.Zero() {
		plan = fault.NewPlan(spec, *faultSeed)
	}

	// Each case picks the machine the algorithm needs and splits the old
	// inline run into a body (the re-run unit of the recovery protocol:
	// results land in captured variables, and bodies that would index out
	// of a too-small degraded machine return an error instead) and a
	// report printed once the harness succeeds.
	var topo machine.Topology
	var body func(*machine.M) error
	var report func()
	switch *algo {
	case "closest", "farthest":
		topo = topoFor(sys.N(), 2*maxi(sys.K, 1))
		var seq []core.NeighborEvent
		body = func(m *machine.M) error {
			var err error
			if *algo == "closest" {
				seq, err = core.ClosestPointSequence(m, sys, *origin)
			} else {
				seq, err = core.FarthestPointSequence(m, sys, *origin)
			}
			return err
		}
		report = func() {
			fmt.Printf("%s-point sequence for P%d:\n", *algo, *origin)
			for _, ev := range seq {
				fmt.Printf("  P%-3d on %s\n", ev.Point, ivString(ev.Lo, ev.Hi))
			}
		}
	case "collisions":
		topo = topoOf(8 * sys.N())
		var cs []core.Collision
		body = func(m *machine.M) error {
			var err error
			cs, err = core.CollisionTimes(m, sys, *origin)
			return err
		}
		report = func() {
			fmt.Printf("%d collisions involving P%d:\n", len(cs), *origin)
			for _, c := range cs {
				fmt.Printf("  t=%.4f with P%d\n", c.T, c.B)
			}
		}
	case "hullmember":
		topo = topoFor(sys.N(), 4*maxi(sys.K, 1)+2)
		var ivs []core.Interval
		body = func(m *machine.M) error {
			var err error
			ivs, err = core.HullVertexIntervals(m, sys, *origin)
			return err
		}
		report = func() {
			fmt.Printf("P%d is a hull vertex during:\n", *origin)
			for _, iv := range ivs {
				fmt.Printf("  %s\n", ivString(iv.Lo, iv.Hi))
			}
		}
	case "containment":
		box := parseDims(*dims)
		topo = topoFor(sys.N(), sys.K+2)
		var ivs []core.Interval
		body = func(m *machine.M) error {
			var err error
			ivs, err = core.ContainmentIntervals(m, sys, box)
			return err
		}
		report = func() {
			fmt.Printf("system fits in %v during:\n", box)
			for _, iv := range ivs {
				fmt.Printf("  %s\n", ivString(iv.Lo, iv.Hi))
			}
		}
	case "cube-edge":
		topo = topoFor(sys.N(), sys.K+2)
		var dfn pieces.Piecewise
		body = func(m *machine.M) error {
			var err error
			dfn, err = core.SmallestHypercubeEdge(m, sys)
			return err
		}
		report = func() {
			fmt.Printf("D(t) has %d pieces:\n", len(dfn))
			for _, p := range dfn {
				fmt.Printf("  %s on %s\n", p.F, ivString(p.Lo, p.Hi))
			}
		}
	case "smallest-cube":
		topo = topoFor(sys.N(), sys.K+2)
		var dmin, tmin float64
		body = func(m *machine.M) error {
			var err error
			dmin, tmin, err = core.SmallestEverHypercube(m, sys)
			return err
		}
		report = func() {
			fmt.Printf("smallest-ever bounding hypercube: edge %.4f at t=%.4f\n", dmin, tmin)
		}
	case "steady-nn":
		topo = topoOf(sys.N())
		var nn int
		body = func(m *machine.M) error {
			if m.Size() < sys.N() {
				return fmt.Errorf("steady-nn: %d points on %d PEs", sys.N(), m.Size())
			}
			var err error
			nn, err = core.SteadyNearestNeighbor(m, sys, *origin, false)
			return err
		}
		report = func() {
			fmt.Printf("steady-state nearest neighbour of P%d: P%d\n", *origin, nn)
		}
	case "steady-cp":
		topo = topoOf(4 * sys.N())
		var a, b int
		body = func(m *machine.M) error {
			if m.Size() < sys.N() {
				return fmt.Errorf("steady-cp: %d points on %d PEs", sys.N(), m.Size())
			}
			var err error
			a, b, err = core.SteadyClosestPair(m, sys)
			return err
		}
		report = func() { fmt.Printf("steady-state closest pair: P%d, P%d\n", a, b) }
	case "steady-hull":
		topo = topoOf(8 * sys.N())
		var hull []int
		body = func(m *machine.M) error {
			if m.Size() < sys.N() {
				return fmt.Errorf("steady-hull: %d points on %d PEs", sys.N(), m.Size())
			}
			var err error
			hull, err = core.SteadyHull(m, sys)
			return err
		}
		report = func() {
			fmt.Printf("steady-state hull (%d vertices, CCW): %v\n", len(hull), hull)
		}
	case "steady-farthest":
		topo = topoOf(8 * sys.N())
		var a, b int
		var d2 poly.Poly
		body = func(m *machine.M) error {
			// The antipodal stage groups hull edges with query directions
			// on one machine, so demand headroom beyond the point count.
			if m.Size() < 4*sys.N() {
				return fmt.Errorf("steady-farthest: %d points need %d PEs, machine has %d",
					sys.N(), 4*sys.N(), m.Size())
			}
			var err error
			a, b, d2, err = core.SteadyFarthestPair(m, sys)
			return err
		}
		report = func() {
			fmt.Printf("steady-state farthest pair: P%d, P%d with d²(t) = %v\n", a, b, d2)
		}
	case "steady-rect":
		topo = topoOf(8 * sys.N())
		var rect core.SteadyRect
		body = func(m *machine.M) error {
			if m.Size() < 4*sys.N() {
				return fmt.Errorf("steady-rect: %d points need %d PEs, machine has %d",
					sys.N(), 4*sys.N(), m.Size())
			}
			var err error
			rect, err = core.SteadyMinAreaRect(m, sys)
			return err
		}
		report = func() {
			fmt.Printf("steady-state min-area rectangle: base on hull edge %d, area(t) = %v\n",
				rect.Edge, rect.Area)
		}
	default:
		fatal("unknown algorithm %q", *algo)
	}

	// Attach a fresh tracer to every attempt's machine; -costtree and
	// -trace report the final attempt (the one that produced the answer
	// and carries the recovery charge), as aborted attempts die mid-span.
	var tr *trace.Tracer
	var opts []fault.RunOption
	if *traceOut != "" || *costTree {
		opts = append(opts, fault.WithAttach(func(m *machine.M, attempt int) {
			tr = trace.Attach(m, *algo)
		}))
	}
	res, err := fault.Run(topo, plan, body, opts...)
	check(err)
	report()
	fmt.Printf("\nsimulated parallel time on %s: %v\n", res.Topo.Name(), res.Stats)
	if plan != nil {
		fmt.Printf("fault report: %s\n", res)
	}

	if tr != nil {
		root := tr.Finish()
		if *costTree {
			fmt.Println()
			trace.WriteCostTree(os.Stdout, root, *costDepth)
		}
		if *traceOut != "" {
			f, err := os.Create(*traceOut)
			check(err)
			check(trace.WriteChrome(f, root, res.M))
			check(f.Close())
			fmt.Printf("\nchrome trace written to %s (load in chrome://tracing or ui.perfetto.dev)\n", *traceOut)
		}
	}
}

func ivString(lo, hi float64) string {
	h := "∞"
	if !math.IsInf(hi, 1) {
		h = fmt.Sprintf("%.4f", hi)
	}
	return fmt.Sprintf("[%.4f, %s]", lo, h)
}

func parseDims(s string) []float64 {
	parts := strings.Split(s, ",")
	out := make([]float64, len(parts))
	for i, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		check(err)
		out[i] = v
	}
	return out
}

func maxi(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func check(err error) {
	if err != nil {
		fatal("%v", err)
	}
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "dyncg: "+format+"\n", args...)
	os.Exit(1)
}
