// Command dyncg runs any of the paper's algorithms on a generated
// workload and reports the answer together with the simulated parallel
// running time on the chosen machine.
//
// -algo takes the daemon's wire names (internal/algo): the CLI sizes the
// machine, guards its minimum size and prints the answer exactly as
// POST /v1/<name> would, as indented JSON.
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
//	go run ./cmd/dyncg -algo closest-point-sequence -n 32 -k 2
//	go run ./cmd/dyncg -algo collision-times -workload converging -n 24 -topo mesh
//	go run ./cmd/dyncg -algo hull-vertex-intervals -n 12 -origin 3
//	go run ./cmd/dyncg -algo containment-intervals -d 3 -dims 12,12,12
//	go run ./cmd/dyncg -algo steady-hull -workload diverging -n 64
//	go run ./cmd/dyncg -algo closest-point-sequence -faults transient=0.05,fail=1 -fault-seed 7
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"

	"dyncg/internal/algo"
	"dyncg/internal/api"
	"dyncg/internal/fault"
	"dyncg/internal/machine"
	"dyncg/internal/motion"
	"dyncg/internal/topo"
	"dyncg/internal/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, errorLine(err))
		os.Exit(1)
	}
}

// errorLine is the stderr line of a failed run: the error behind one
// "dyncg: " prefix, which the facade's own errors already carry.
func errorLine(err error) string {
	msg := err.Error()
	if strings.HasPrefix(msg, "dyncg: ") {
		return msg
	}
	return "dyncg: " + msg
}

// run parses args, runs the chosen algorithm and writes the report to w.
func run(args []string, w io.Writer) (err error) {
	fs := flag.NewFlagSet("dyncg", flag.ExitOnError)
	var (
		name      = fs.String("algo", "closest-point-sequence", "algorithm: "+strings.Join(algo.Names(), "|"))
		n         = fs.Int("n", 16, "number of moving points; the columnar core scales past machines of 1<<20 PEs (see README, Scale)")
		k         = fs.Int("k", 1, "motion degree bound")
		d         = fs.Int("d", 2, "dimension (planar algorithms need 2)")
		topoName  = fs.String("topo", "hypercube", "machine topology: mesh|hypercube|ccc|shuffle")
		workload  = fs.String("workload", "random", "workload: random|converging|diverging|circle")
		origin    = fs.Int("origin", 0, "query point index")
		dims      = fs.String("dims", "10,10", "hyper-rectangle side lengths (containment-intervals)")
		seed      = fs.Int64("seed", 1, "RNG seed")
		traceOut  = fs.String("trace", "", "write a Chrome trace-event JSON file for the run")
		costTree  = fs.Bool("costtree", false, "print the per-span cost-attribution tree after the run")
		costDepth = fs.Int("costdepth", 0, "cost tree depth limit (0 = unlimited)")
		faults    = fs.String("faults", "", "fault spec, e.g. transient=0.05,retries=3,fail=1,gap=50 (empty = no faults)")
		faultSeed = fs.Int64("fault-seed", 1, "fault schedule RNG seed (same seed = same schedule)")
		cpuProf   = fs.String("cpuprofile", "", "write a CPU profile of the run to this file (go tool pprof)")
		memProf   = fs.String("memprofile", "", "write a heap allocation profile to this file at exit (go tool pprof)")
	)
	fs.Parse(args)
	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	if *memProf != "" {
		defer func() {
			f, ferr := os.Create(*memProf)
			if ferr != nil {
				err = ferr
				return
			}
			defer f.Close()
			runtime.GC() // settle the heap so the profile shows live data
			if perr := pprof.WriteHeapProfile(f); err == nil {
				err = perr
			}
		}()
	}

	a, ok := algo.Lookup(*name)
	if !ok {
		return fmt.Errorf("unknown algorithm %q", *name)
	}
	sys, err := workloadSystem(*workload, *seed, *n, *k, *d)
	if err != nil {
		return err
	}
	box, err := parseDims(*dims)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "workload: %s, n=%d, k=%d, d=%d, machine=%s\n",
		*workload, sys.N(), sys.K, sys.D, *topoName)

	spec, err := fault.ParseSpec(*faults)
	if err != nil {
		return err
	}
	var plan *fault.Plan
	if !spec.Zero() {
		plan = fault.NewPlan(spec, *faultSeed)
	}
	net, err := topo.NewNetwork(topo.Topology(*topoName), a.PEs(*topoName, sys))
	if err != nil {
		return err
	}

	// Attach a fresh tracer to every attempt's machine; -costtree and
	// -trace report the final attempt (the one that produced the answer
	// and carries the recovery charge), as aborted attempts die mid-span.
	var tr *trace.Tracer
	var opts []fault.RunOption
	if *traceOut != "" || *costTree {
		opts = append(opts, fault.WithAttach(func(m *machine.M, attempt int) {
			tr = trace.Attach(m, *name)
		}))
	}
	req := &api.Request{V: api.Version, Origin: *origin, Dims: box}
	var result any
	res, err := fault.Run(net, plan, func(m *machine.M) error {
		var err error
		result, err = a.Run(m, sys, req)
		return err
	}, opts...)
	if err != nil {
		return err
	}
	out, err := json.MarshalIndent(result, "", "  ")
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s\n", out)
	fmt.Fprintf(w, "\nsimulated parallel time on %s: %v\n", res.Topo.Name(), res.Stats)
	if plan != nil {
		fmt.Fprintf(w, "fault report: %s\n", res)
	}

	if tr != nil {
		root := tr.Finish()
		if *costTree {
			fmt.Fprintln(w)
			trace.WriteCostTree(w, root, *costDepth)
		}
		if *traceOut != "" {
			f, err := os.Create(*traceOut)
			if err != nil {
				return err
			}
			if err := errors.Join(trace.WriteChrome(f, root, res.M), f.Close()); err != nil {
				return err
			}
			fmt.Fprintf(w, "\nchrome trace written to %s (load in chrome://tracing or ui.perfetto.dev)\n", *traceOut)
		}
	}
	return nil
}

// workloadSystem generates the named workload from the seed.
func workloadSystem(workload string, seed int64, n, k, d int) (*motion.System, error) {
	r := rand.New(rand.NewSource(seed))
	switch workload {
	case "random":
		return motion.Random(r, n, k, d, 10), nil
	case "converging":
		return motion.Converging(r, n), nil
	case "diverging":
		return motion.Diverging(r, n), nil
	case "circle":
		return motion.OnCircle(n, 10), nil
	}
	return nil, fmt.Errorf("unknown workload %q", workload)
}

func parseDims(s string) ([]float64, error) {
	parts := strings.Split(s, ",")
	out := make([]float64, len(parts))
	for i, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}
