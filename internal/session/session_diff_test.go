package session

// The differential battery of the batch-dynamic contract: random update
// batches driven through Engine.Apply must leave every cached leaf equal
// to the leaf built from the live points, and a maintained answer
// bit-identical to Engine.Rebuild — a from-scratch reconstruction on the
// same machine — at the simulated cost the batch charged, for every
// session algorithm, on both topologies, at batch sizes from 1 to 64.
// Runs under -race in CI (scripts/check.sh).

import (
	"math/rand"
	"reflect"
	"testing"

	"dyncg/internal/keys"
	"dyncg/internal/machine"
	"dyncg/internal/pieces"
)

// auditEngine checks e against its oracles after New or an accepted
// batch that charged cost: every cached leaf equals e.leaf over the live
// state (a dirty slot Apply failed to rewrite would differ), and Rebuild
// returns the maintained answer while charging exactly cost.
func auditEngine(t *testing.T, e *Engine, cost machine.Stats, label string) {
	t.Helper()
	for ti, fs := range e.leaves {
		for slot, f := range fs {
			var want pieces.Piecewise
			if slot < e.slots() {
				want = e.leaf(ti, slot, &e.live)
			}
			if !reflect.DeepEqual(f, want) {
				t.Fatalf("%s: envelope %d slot %d caches %v, live points give %v", label, ti, slot, f, want)
			}
		}
	}
	before := e.m.Stats()
	res, err := e.Rebuild()
	if err != nil {
		t.Fatalf("%s: Rebuild: %v", label, err)
	}
	if rebuilt := e.m.Stats().Sub(before); rebuilt != cost {
		t.Fatalf("%s: batch charged %+v, Rebuild %+v", label, cost, rebuilt)
	}
	sameResult(t, e.Result(), res, label)
}

// deltaGen generates valid random batches against a mirror of the
// engine's ID state (IDs are deterministic: initial points get 0..n-1,
// inserts continue the sequence).
type deltaGen struct {
	r      *rand.Rand
	live   map[int]bool
	origin int // -1 when the algorithm has none
	nextID int
	cap    int
	d, k   int
}

func newDeltaGen(r *rand.Rand, n, capacity, d, k, origin int) *deltaGen {
	g := &deltaGen{r: r, live: make(map[int]bool), origin: origin, nextID: n, cap: capacity, d: d, k: k}
	for i := 0; i < n; i++ {
		g.live[i] = true
	}
	return g
}

func (g *deltaGen) pick(excludeOrigin bool) int {
	// Sorted before sampling: map iteration order is random.
	var ids []int
	for _, id := range keys.Sorted(g.live) {
		if !excludeOrigin || id != g.origin {
			ids = append(ids, id)
		}
	}
	if len(ids) == 0 {
		return -1
	}
	return ids[g.r.Intn(len(ids))]
}

func (g *deltaGen) batch(size int) []Delta {
	ds := make([]Delta, 0, size)
	for len(ds) < size {
		switch g.r.Intn(3) {
		case 0: // insert
			if len(g.live) >= g.cap {
				continue
			}
			ds = append(ds, Delta{Op: OpInsert, Point: randPoint(g.r, g.d, g.k)})
			g.live[g.nextID] = true
			g.nextID++
		case 1: // delete (keep at least two points so every algorithm stays legal)
			if len(g.live) <= 2 {
				continue
			}
			id := g.pick(true)
			if id < 0 {
				continue
			}
			ds = append(ds, Delta{Op: OpDelete, ID: id})
			delete(g.live, id)
		default: // retarget (origin included — the all-dirty path)
			id := g.pick(false)
			ds = append(ds, Delta{Op: OpRetarget, ID: id, Point: randPoint(g.r, g.d, g.k)})
		}
	}
	return ds
}

func diffConfig(algo Algo, capacity, d int) Config {
	cfg := Config{Algorithm: algo, Capacity: capacity}
	if algo == Containment {
		cfg.Dims = make([]float64, d)
		for i := range cfg.Dims {
			cfg.Dims[i] = 8 + float64(i)
		}
	}
	return cfg
}

// TestSessionDifferential: moderate capacities, every algorithm, both
// topologies, random batches of size 1–6.
func TestSessionDifferential(t *testing.T) {
	const k = 1
	cases := []struct {
		algo     Algo
		capacity int
		d        int
	}{
		{ClosestPointSeq, 12, 2},
		{FarthestPointSeq, 12, 2},
		{ClosestPairSeq, 8, 2},
		{FarthestPairSeq, 8, 2},
		{CubeEdge, 12, 2},
		{SmallestEver, 12, 3},
		{Containment, 12, 2},
	}
	for _, topo := range []string{"hypercube", "mesh"} {
		for _, tc := range cases {
			tc := tc
			t.Run(topo+"/"+string(tc.algo), func(t *testing.T) {
				r := rand.New(rand.NewSource(int64(len(tc.algo)) + int64(tc.capacity)))
				n := tc.capacity / 2
				pts := randPoints(r, n, tc.d, k)
				m := newTestMachine(t, topo, tc.algo, tc.capacity, k)
				e, err := New(m, diffConfig(tc.algo, tc.capacity, tc.d), pts)
				if err != nil {
					t.Fatal(err)
				}
				// The engine's very first answer must already match.
				auditEngine(t, e, m.Stats(), "initial")
				g := newDeltaGen(r, n, tc.capacity, tc.d, k, e.Origin())
				rounds := 8
				if topo == "mesh" {
					rounds = 4 // mesh routing is slower to simulate
				}
				for round := 0; round < rounds; round++ {
					b := g.batch(1 + r.Intn(6))
					before := m.Stats()
					if _, _, err := e.Apply(b); err != nil {
						t.Fatalf("round %d: Apply(%d deltas): %v", round, len(b), err)
					}
					auditEngine(t, e, m.Stats().Sub(before), "round")
				}
			})
		}
	}
}

// TestSessionDifferentialLargeBatches: batch sizes up to 64 against a
// high-capacity point-sequence session (the issue's upper bound).
func TestSessionDifferentialLargeBatches(t *testing.T) {
	if testing.Short() {
		t.Skip("large-batch battery skipped in -short mode")
	}
	const capacity, d, k = 96, 2, 1
	r := rand.New(rand.NewSource(640))
	pts := randPoints(r, 48, d, k)
	m := newTestMachine(t, "hypercube", ClosestPointSeq, capacity, k)
	e, err := New(m, Config{Algorithm: ClosestPointSeq, Origin: 0, Capacity: capacity}, pts)
	if err != nil {
		t.Fatal(err)
	}
	g := newDeltaGen(r, 48, capacity, d, k, 0)
	for _, size := range []int{1, 4, 16, 64} {
		b := g.batch(size)
		before := m.Stats()
		if _, _, err := e.Apply(b); err != nil {
			t.Fatalf("batch of %d: %v", size, err)
		}
		auditEngine(t, e, m.Stats().Sub(before), "large batch")
	}
}
