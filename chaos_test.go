// Chaos battery for the fault-injection and recovery layer: every
// Table 1–3 algorithm must return bit-identical answers under any
// survivable fault schedule, with the extra simulated cost honestly
// charged — retry rounds inside the retrying primitive's span, the
// checkpoint-restore route in a "fault.recover" span, and strictly
// larger cumulative Stats than a clean run of the same work on the
// machine the computation ended up on.
//
// The CI chaos-smoke job runs `go test -race -run 'TestChaos' .`, so
// every test in this file shares the TestChaos name prefix.
package dyncg_test

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"dyncg/internal/ccc"
	"dyncg/internal/colstore"
	"dyncg/internal/core"
	"dyncg/internal/dsseq"
	"dyncg/internal/fault"
	"dyncg/internal/hypercube"
	"dyncg/internal/machine"
	"dyncg/internal/mesh"
	"dyncg/internal/motion"
	"dyncg/internal/shuffle"
	"dyncg/internal/trace"
)

// chaosTopoCache shares topology instances (immutable, including their
// memoised cost tables) across the battery; ccc q=8 in particular takes
// ~0.2s of BFS to build.
var chaosTopoCache = map[string]machine.Topology{}

func chaosTopo(key string, mk func() machine.Topology) machine.Topology {
	if t, ok := chaosTopoCache[key]; ok {
		return t
	}
	t := mk()
	chaosTopoCache[key] = t
	return t
}

// chaosTopos returns one instance of each of the four topologies with at
// least pes PEs (the smallest supported size: meshes are powers of four,
// CCCs come in sizes q·2^q for q ∈ {1,2,4,8}).
func chaosTopos(pes int) map[string]machine.Topology {
	out := map[string]machine.Topology{
		"mesh": chaosTopo(fmt.Sprintf("mesh%d", dsseq.NextPow4(pes)), func() machine.Topology {
			return mesh.MustNew(dsseq.NextPow4(pes), mesh.Proximity)
		}),
		"hypercube": chaosTopo(fmt.Sprintf("cube%d", dsseq.NextPow2(pes)), func() machine.Topology {
			return hypercube.MustNew(dsseq.NextPow2(pes))
		}),
	}
	q := 0
	for 1<<q < dsseq.NextPow2(pes) {
		q++
	}
	out["shuffle"] = chaosTopo(fmt.Sprintf("shuffle%d", q), func() machine.Topology {
		return shuffle.MustNew(q)
	})
	cq := 1
	for _, c := range []int{1, 2, 4, 8} {
		cq = c
		if c*(1<<c) >= pes {
			break
		}
	}
	out["ccc"] = chaosTopo(fmt.Sprintf("ccc%d", cq), func() machine.Topology {
		return ccc.MustNew(cq)
	})
	return out
}

// chaosSystem builds a deterministic random motion system from its own
// seed, so every call with the same arguments yields the same instance.
func chaosSystem(seed int64, n, k, d int) *motion.System {
	return motion.Random(rand.New(rand.NewSource(seed)), n, k, d, 8)
}

// chaosCase is one Table 1–3 algorithm packaged as a fault.Run body. mk
// returns a fresh body plus an accessor for its captured output; the
// body is the re-run unit of the recovery protocol, so it sizes its work
// by the (fixed) problem instance, never by m.Size(), and returns an
// error when the machine is too small instead of panicking.
type chaosCase struct {
	name string
	pes  int // PEs the fault-free run needs (chaosTopos floor)
	mk   func() (body func(m *machine.M) error, out func() any)
}

var chaosCases = []chaosCase{
	{name: "table1-primitives", pes: 64, mk: func() (func(*machine.M) error, func() any) {
		var outs [][]int
		body := func(m *machine.M) error {
			const items = 16
			if m.Size() < items {
				return fmt.Errorf("table1 body: %d items need %d PEs, machine has %d",
					items, items, m.Size())
			}
			outs = outs[:0]
			r := rand.New(rand.NewSource(99))
			vals := make([]int, items)
			for i := range vals {
				vals[i] = r.Intn(1 << 16)
			}
			// Sort.
			regs := colstore.Scatter(items, vals)
			machine.SortCols(m, regs, func(a, b int) bool { return a < b })
			outs = append(outs, regs.Gather())
			// Segmented scans, forward and backward.
			regs = colstore.Scatter(items, vals)
			seg := machine.BlockSegments(items, 4)
			machine.ScanCols(m, regs, seg, machine.Forward, func(a, b int) int { return a + b })
			outs = append(outs, regs.Gather())
			machine.ScanCols(m, regs, seg, machine.Backward, func(a, b int) int { return a + b })
			outs = append(outs, regs.Gather())
			// Semigroup (min) and broadcast.
			regs = colstore.Scatter(items, vals)
			machine.SemigroupCols(m, regs, seg, func(a, b int) int {
				if a < b {
					return a
				}
				return b
			})
			outs = append(outs, regs.Gather())
			bregs := colstore.New[int](items)
			bregs.Set(items/3, vals[0])
			machine.SpreadCols(m, bregs, machine.WholeMachine(items))
			outs = append(outs, bregs.Gather())
			// Compaction of a sparse file.
			sparse := colstore.New[int](items)
			for i := 0; i < items; i += 3 {
				sparse.Set(i, vals[i])
			}
			machine.CompactCols(m, sparse, seg)
			outs = append(outs, sparse.Gather())
			return nil
		}
		return body, func() any { return outs }
	}},
	{name: "thm4.1-closest-seq", pes: 64, mk: func() (func(*machine.M) error, func() any) {
		sys := chaosSystem(11, 8, 1, 2)
		var seq []core.NeighborEvent
		body := func(m *machine.M) error {
			var err error
			seq, err = core.ClosestPointSequence(m, sys, 0)
			return err
		}
		return body, func() any { return seq }
	}},
	{name: "thm4.2-collisions", pes: 64, mk: func() (func(*machine.M) error, func() any) {
		sys := motion.Converging(rand.New(rand.NewSource(12)), 8)
		var cols []core.Collision
		body := func(m *machine.M) error {
			var err error
			cols, err = core.CollisionTimes(m, sys, 0)
			return err
		}
		return body, func() any { return cols }
	}},
	{name: "thm4.3-hull-member", pes: 256, mk: func() (func(*machine.M) error, func() any) {
		sys := chaosSystem(13, 4, 1, 2)
		var ivs []core.Interval
		body := func(m *machine.M) error {
			var err error
			ivs, err = core.HullVertexIntervals(m, sys, 0)
			return err
		}
		return body, func() any { return ivs }
	}},
	{name: "thm4.4-containment", pes: 128, mk: func() (func(*machine.M) error, func() any) {
		sys := chaosSystem(14, 4, 1, 3)
		var ivs []core.Interval
		body := func(m *machine.M) error {
			var err error
			ivs, err = core.ContainmentIntervals(m, sys, []float64{12, 12, 12})
			return err
		}
		return body, func() any { return ivs }
	}},
	{name: "thm4.5-smallest-cube", pes: 128, mk: func() (func(*machine.M) error, func() any) {
		sys := chaosSystem(15, 4, 1, 3)
		var out [2]float64
		body := func(m *machine.M) error {
			d, tm, err := core.SmallestEverHypercube(m, sys)
			out = [2]float64{d, tm}
			return err
		}
		return body, func() any { return out }
	}},
	{name: "prop5.2-steady-nn", pes: 64, mk: func() (func(*machine.M) error, func() any) {
		sys := chaosSystem(16, 16, 1, 2)
		out := -1
		body := func(m *machine.M) error {
			if m.Size() < sys.N() {
				return fmt.Errorf("steady-nn: %d points on %d PEs", sys.N(), m.Size())
			}
			var err error
			out, err = core.SteadyNearestNeighborD(m, sys, 0, false)
			return err
		}
		return body, func() any { return out }
	}},
	{name: "prop5.3-steady-cp", pes: 64, mk: func() (func(*machine.M) error, func() any) {
		sys := chaosSystem(17, 16, 1, 2)
		var out [2]int
		body := func(m *machine.M) error {
			if m.Size() < sys.N() {
				return fmt.Errorf("steady-cp: %d points on %d PEs", sys.N(), m.Size())
			}
			a, b, err := core.SteadyClosestPair(m, sys)
			out = [2]int{a, b}
			return err
		}
		return body, func() any { return out }
	}},
	{name: "prop5.4-steady-hull", pes: 64, mk: func() (func(*machine.M) error, func() any) {
		sys := chaosSystem(18, 8, 1, 2)
		var hull []int
		body := func(m *machine.M) error {
			if m.Size() < sys.N() {
				return fmt.Errorf("steady-hull: %d points on %d PEs", sys.N(), m.Size())
			}
			var err error
			hull, err = core.SteadyHull(m, sys)
			return err
		}
		return body, func() any { return hull }
	}},
	{name: "cor5.7-steady-farthest", pes: 64, mk: func() (func(*machine.M) error, func() any) {
		sys := chaosSystem(19, 8, 1, 2)
		var out struct {
			A, B int
			D2   string
		}
		body := func(m *machine.M) error {
			// The antipodal-pairs stage groups hull edges with query
			// directions on one machine (sectorOwners), so demand headroom
			// beyond the point count.
			if m.Size() < 4*sys.N() {
				return fmt.Errorf("steady-farthest: %d points need %d PEs, machine has %d",
					sys.N(), 4*sys.N(), m.Size())
			}
			a, b, d2, err := core.SteadyFarthestPair(m, sys)
			out.A, out.B = a, b
			out.D2 = fmt.Sprint(d2)
			return err
		}
		return body, func() any { return out }
	}},
	{name: "cor5.9-steady-rect", pes: 64, mk: func() (func(*machine.M) error, func() any) {
		sys := chaosSystem(20, 8, 1, 2)
		var rect core.SteadyRect
		body := func(m *machine.M) error {
			// Theorem 5.8's sector grouping needs hull edges plus query
			// directions on one machine; demand headroom beyond the points.
			if m.Size() < 4*sys.N() {
				return fmt.Errorf("steady-rect: %d points need %d PEs, machine has %d",
					sys.N(), 4*sys.N(), m.Size())
			}
			var err error
			rect, err = core.SteadyMinAreaRect(m, sys)
			return err
		}
		return body, func() any { return rect }
	}},
}

// chaosSpecs is the fault workload sweep of the battery: transient-only,
// permanent-failure-only, and mixed.
var chaosSpecs = []fault.Spec{
	{Transient: 0.05, MaxRetries: 3},
	{Fail: 1, Gap: 40},
	{Transient: 0.02, Fail: 2, Gap: 60},
}

// TestChaosBattery is the main oracle: for every Table 1–3 algorithm ×
// topology × fault spec × seed, outputs are bit-identical to the
// fault-free run and the cumulative cost obeys the accounting contract.
func TestChaosBattery(t *testing.T) {
	seeds := []int64{1, 2}
	var sawTransient, sawRecovery, sawUnsurvivable bool
	for _, cs := range chaosCases {
		cs := cs
		t.Run(cs.name, func(t *testing.T) {
			for topoName, topo := range chaosTopos(cs.pes) {
				body, out := cs.mk()
				clean, err := fault.Run(topo, nil, body)
				if err != nil {
					t.Fatalf("%s: clean run: %v", topoName, err)
				}
				want := deepCopyAny(out())

				for _, spec := range chaosSpecs {
					for _, seed := range seeds {
						fbody, fout := cs.mk()
						plan := fault.NewPlan(spec, seed)
						res, err := fault.Run(topo, plan, fbody)
						ctx := fmt.Sprintf("%s spec=%q seed=%d", topoName, spec, seed)
						if err != nil {
							if errors.Is(err, fault.ErrNotSurvivable) {
								sawUnsurvivable = true
								continue // schedule killed too much of the machine
							}
							t.Fatalf("%s: %v", ctx, err)
						}
						if got := fout(); !reflect.DeepEqual(want, got) {
							t.Fatalf("%s: answer diverged under faults:\n got %v\nwant %v", ctx, got, want)
						}
						switch {
						case res.Transients == 0 && len(res.Failed) == 0:
							// The schedule happened to inject nothing: the run
							// must be indistinguishable from the clean one.
							if res.Stats != clean.Stats {
								t.Fatalf("%s: no faults fired but stats %+v != clean %+v",
									ctx, res.Stats, clean.Stats)
							}
						case len(res.Failed) == 0:
							sawTransient = true
							if res.Stats.Time() <= clean.Stats.Time() {
								t.Fatalf("%s: faulted time %d not strictly larger than clean %d",
									ctx, res.Stats.Time(), clean.Stats.Time())
							}
							if res.Stats.Rounds != clean.Stats.Rounds+res.RetryRounds {
								t.Fatalf("%s: rounds %d != clean %d + retry rounds %d",
									ctx, res.Stats.Rounds, clean.Stats.Rounds, res.RetryRounds)
							}
						default:
							sawRecovery = true
							if res.Attempts < 2 {
								t.Fatalf("%s: %d PEs failed but only %d attempt(s)",
									ctx, len(res.Failed), res.Attempts)
							}
							// The re-run landed on a degraded submachine; the
							// algorithm's answer must be machine-size invariant
							// and the cumulative cost strictly above a clean run
							// of the same body there (abort + restore are extra).
							sub := machine.New(res.Topo)
							sbody, sout := cs.mk()
							if err := sbody(sub); err != nil {
								t.Fatalf("%s: clean re-run on %s: %v", ctx, res.Topo.Name(), err)
							}
							if got := sout(); !reflect.DeepEqual(want, got) {
								t.Fatalf("%s: answer varies with machine size on %s:\n got %v\nwant %v",
									ctx, res.Topo.Name(), got, want)
							}
							if res.Stats.Time() <= sub.Stats().Time() {
								t.Fatalf("%s: degraded time %d not strictly larger than clean time %d on %s",
									ctx, res.Stats.Time(), sub.Stats().Time(), res.Topo.Name())
							}
						}
					}
				}
			}
		})
	}
	if !sawTransient {
		t.Error("battery never exercised a transient fault; densify chaosSpecs")
	}
	if !sawRecovery {
		t.Error("battery never exercised a permanent-failure recovery; densify chaosSpecs")
	}
	t.Logf("battery: transient=%v recovery=%v unsurvivable-skips=%v",
		sawTransient, sawRecovery, sawUnsurvivable)
}

// deepCopyAny snapshots a body output so later runs of sibling closures
// cannot alias it (outputs are plain data: slices, arrays, structs).
func deepCopyAny(v any) any {
	switch x := v.(type) {
	case [][]int:
		cp := make([][]int, len(x))
		for i, s := range x {
			cp[i] = append([]int(nil), s...)
		}
		return cp
	case []int:
		return append([]int(nil), x...)
	case []core.NeighborEvent:
		return append([]core.NeighborEvent(nil), x...)
	case []core.Collision:
		return append([]core.Collision(nil), x...)
	case []core.Interval:
		return append([]core.Interval(nil), x...)
	default:
		return v // value types ([2]float64, structs, int) copy by assignment
	}
}

// TestChaosDeterminism: the same fault seed against the same computation
// yields the identical fault schedule, Result, Stats, and trace span
// tree — on every topology. (The fault-layer mirror of the worker-pool
// differential tests.)
func TestChaosDeterminism(t *testing.T) {
	spec := fault.Spec{Transient: 0.03, MaxRetries: 3, Fail: 1, Gap: 50}
	var cs chaosCase
	for _, c := range chaosCases {
		if c.name == "thm4.1-closest-seq" {
			cs = c
		}
	}
	for topoName, topo := range chaosTopos(cs.pes) {
		run := func() (*fault.Result, any, []*trace.Span, error) {
			var tracers []*trace.Tracer
			body, out := cs.mk()
			res, err := fault.Run(topo, fault.NewPlan(spec, 7), body,
				fault.WithAttach(func(m *machine.M, attempt int) {
					tracers = append(tracers, trace.Attach(m, "chaos", trace.WithRounds()))
				}))
			roots := make([]*trace.Span, len(tracers))
			for i, tr := range tracers {
				roots[i] = tr.Finish()
			}
			return res, out(), roots, err
		}
		resA, outA, rootsA, errA := run()
		resB, outB, rootsB, errB := run()
		if fmt.Sprint(errA) != fmt.Sprint(errB) {
			t.Fatalf("%s: errors diverge: %v vs %v", topoName, errA, errB)
		}
		if !reflect.DeepEqual(outA, outB) {
			t.Fatalf("%s: outputs diverge between identical seeded runs", topoName)
		}
		if resA.Stats != resB.Stats || resA.Attempts != resB.Attempts ||
			resA.Transients != resB.Transients || resA.RetryRounds != resB.RetryRounds ||
			!reflect.DeepEqual(resA.Failed, resB.Failed) {
			t.Fatalf("%s: results diverge: %v (%+v) vs %v (%+v)",
				topoName, resA, resA.Stats, resB, resB.Stats)
		}
		if len(rootsA) != len(rootsB) {
			t.Fatalf("%s: %d attempts traced vs %d", topoName, len(rootsA), len(rootsB))
		}
		for i := range rootsA {
			requireSpansEqual(t, rootsA[i], rootsB[i], fmt.Sprintf("%s/attempt%d", topoName, i))
		}
	}
}

// TestChaosCostAttribution: retry rounds land inside the primitive spans
// that were executing when the fault fired, and recoveries appear as
// explicit "fault.recover" spans carrying the remap parameters — so the
// trace cost tree attributes every extra simulated step.
func TestChaosCostAttribution(t *testing.T) {
	var cs chaosCase
	for _, c := range chaosCases {
		if c.name == "table1-primitives" {
			cs = c
		}
	}
	topo := chaosTopos(cs.pes)["hypercube"]

	// Transient faults: every retry round is recorded, inside a primitive
	// span (never hoisted to the root).
	var tracers []*trace.Tracer
	body, _ := cs.mk()
	res, err := fault.Run(topo, fault.NewPlan(fault.Spec{Transient: 0.1}, 9), body,
		fault.WithAttach(func(m *machine.M, attempt int) {
			tracers = append(tracers, trace.Attach(m, "chaos", trace.WithRounds()))
		}))
	if err != nil {
		t.Fatal(err)
	}
	if res.Transients == 0 {
		t.Fatal("transient plan injected nothing; pick a denser spec")
	}
	root := tracers[0].Finish()
	var retries, rootRetries int64
	root.Walk(func(s *trace.Span, depth int) {
		for _, ri := range s.Rounds {
			if ri.Kind == machine.RoundRetry {
				retries++
				if depth == 0 {
					rootRetries++
				}
			}
		}
	})
	if retries != res.RetryRounds {
		t.Fatalf("span tree records %d retry rounds, Result says %d", retries, res.RetryRounds)
	}
	if rootRetries != 0 {
		t.Fatalf("%d retry rounds charged at the root instead of inside primitive spans", rootRetries)
	}
	// The metrics exporter aggregates the same fault tally per primitive.
	var aggRetries int64
	for _, pm := range trace.Collect(root).ByName {
		aggRetries += pm.Retries
	}
	if aggRetries != res.RetryRounds {
		t.Fatalf("metrics tally %d retry rounds, Result says %d", aggRetries, res.RetryRounds)
	}

	// Permanent failure: the recovery is an explicit span on the new
	// machine's timeline, with the remap parameters as attributes and the
	// checkpoint-restore route as its single recorded round.
	for seed := int64(1); ; seed++ {
		if seed > 50 {
			t.Fatal("no seed in 1..50 produced a surviving recovery")
		}
		var tracers []*trace.Tracer
		body, _ := cs.mk()
		res, err := fault.Run(topo, fault.NewPlan(fault.Spec{Fail: 1, Gap: 40}, seed), body,
			fault.WithAttach(func(m *machine.M, attempt int) {
				tracers = append(tracers, trace.Attach(m, "chaos", trace.WithRounds()))
			}))
		roots := make([]*trace.Span, len(tracers))
		for i, tr := range tracers {
			roots[i] = tr.Finish()
		}
		if errors.Is(err, fault.ErrNotSurvivable) {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Failed) == 0 {
			continue
		}
		var rec *trace.Span
		for _, root := range roots {
			root.Walk(func(s *trace.Span, depth int) {
				if s.Name == "fault.recover" {
					rec = s
				}
			})
		}
		if rec == nil {
			t.Fatalf("PE %v failed but no fault.recover span was traced", res.Failed)
		}
		for _, key := range []string{"pe", "from", "to", "size"} {
			if rec.Attr(key) == "" {
				t.Fatalf("fault.recover span lacks attribute %q: %+v", key, rec.Attrs)
			}
		}
		var recRounds int
		for _, ri := range rec.Rounds {
			if ri.Kind == machine.RoundRecovery {
				recRounds++
			}
		}
		if recRounds != 1 {
			t.Fatalf("fault.recover span records %d recovery rounds, want 1", recRounds)
		}
		var aggRecoveries int64
		for _, root := range roots {
			if pm := trace.Collect(root).ByName["fault.recover"]; pm != nil {
				aggRecoveries += pm.Recoveries
			}
		}
		if aggRecoveries != 1 {
			t.Fatalf("metrics tally %d recovery rounds under fault.recover, want 1", aggRecoveries)
		}
		break
	}
}
