package main

import (
	"encoding/json"
	"math/rand"
	"sort"
	"strconv"

	"dyncg/internal/api"
	"dyncg/internal/motion"
)

// sessionSpec places one session of the traced run's session stream.
// The two point-sequence algorithms run at 64–128 points, where an
// update batch costs well under a millisecond. The pair-sequence and
// span algorithms (cube edge, smallest-ever cube, containment) run at
// 6–8 points: a span session's machine is sized for λ over its capacity,
// so already at 16 points one of its updates costs 10–20 ms and a create
// or audit near 90 ms. Sizes are fixed so that only the trajectories
// depend on the seed.
type sessionSpec struct {
	algo string
	topo string
	n    int // initial points
}

// laneSessions is the fixed session layout of each client lane; the
// seven session algorithms appear across the two lanes on both
// topologies.
var laneSessions = [2][]sessionSpec{
	{
		{"closest-point-sequence", "hypercube", 64},
		{"closest-pair-sequence", "mesh", 8},
		{"smallest-hypercube-edge", "hypercube", 6},
		{"containment-intervals", "mesh", 6},
	},
	{
		{"farthest-point-sequence", "hypercube", 128},
		{"farthest-pair-sequence", "hypercube", 8},
		{"smallest-ever-hypercube", "mesh", 6},
		{"closest-point-sequence", "mesh", 64},
	},
}

// sessModel is the generator's view of one live session: enough to
// predict the IDs every response must report.
type sessModel struct {
	n0       int   // initial population
	capacity int   // options.capacity sent at create
	live     []int // ascending live IDs
	next     int   // next ID an insert receives
	origin   int   // stable ID of the query point (-1 when none)
}

// sessionGen produces one lane's session op stream lazily: the stream
// is unbounded (closed-loop length depends on capacity), a pure
// function of the seed, and never asks for an invalid update.
type sessionGen struct {
	r       *rand.Rand
	lane    int
	models  []*sessModel
	k       int // ops drawn so far, churn creates excluded
	pending *op // the create half of a churn pair
}

func newSessionGen(seed int64, lane int) *sessionGen {
	g := &sessionGen{r: rand.New(rand.NewSource(seed*7919 + int64(lane) + 1)), lane: lane}
	g.models = make([]*sessModel, len(laneSessions[lane]))
	return g
}

// creates returns the lane's initial create ops (run during set-up).
func (g *sessionGen) creates() []*op {
	out := make([]*op, len(g.models))
	for slot := range g.models {
		out[slot] = g.create(slot)
	}
	return out
}

func (g *sessionGen) create(slot int) *op {
	spec := laneSessions[g.lane][slot]
	n := spec.n
	sys := motion.Random(rand.New(rand.NewSource(g.r.Int63())), n, 1, 2, 10)
	m := &sessModel{n0: n, capacity: n + 4, next: n, origin: -1}
	for id := 0; id < n; id++ {
		m.live = append(m.live, id)
	}
	req := api.SessionCreateRequest{
		V: api.Version, Algorithm: spec.algo, System: wireSystem(sys),
		Options: api.SessionOptions{Topology: spec.topo, Capacity: m.capacity, MaxDegree: 1},
	}
	switch spec.algo {
	case "closest-point-sequence", "farthest-point-sequence":
		m.origin = 0
	case "containment-intervals":
		req.Dims = []float64{40, 40}
	}
	g.models[slot] = m
	return &op{kind: kCreate, body: mustJSON(req), slot: slot, points: append([]int(nil), m.live...), hot: -1}
}

// sessionPattern is a lane's op schedule, repeated: update batches of
// 1, 4 or 16 deltas (56%), plain queries (36%), one ?verify=1 audit and
// one delete-and-recreate churn (4% each). Op k goes to session slot
// k mod 4 with kind sessionPattern[(k/4) mod 25], so every (session,
// kind) pair recurs at a fixed rate for every seed.
var sessionPattern = [25]string{
	"u1", "q", "u4", "q", "u16", "q", "u1", "q", "u4", "q", "u16", "q", "v",
	"u1", "q", "u4", "u16", "q", "u1", "q", "u4", "c", "u16", "u1", "u4",
}

// next returns the lane's next session op.
func (g *sessionGen) next() *op {
	if p := g.pending; p != nil {
		g.pending = nil
		return p
	}
	k := g.k
	g.k++
	slot := k % len(g.models)
	m := g.models[slot]
	switch kind := sessionPattern[(k/len(g.models))%len(sessionPattern)]; kind {
	case "q":
		return &op{kind: kQuery, slot: slot, points: append([]int(nil), m.live...), hot: -1}
	case "v":
		return &op{kind: kVerify, slot: slot, points: append([]int(nil), m.live...), hot: -1}
	case "c":
		g.pending = g.create(slot)
		return &op{kind: kDelete, slot: slot, hot: -1}
	default:
		size, _ := strconv.Atoi(kind[1:])
		return g.update(slot, m, size)
	}
}

// update draws a batch of retargets, inserts and deletes that keeps the
// population between half the initial size and the capacity, never
// deletes the query point, and touches each ID at most once.
func (g *sessionGen) update(slot int, m *sessModel, k int) *op {
	touched := map[int]bool{}
	liveSet := map[int]bool{}
	for _, id := range m.live {
		liveSet[id] = true
	}
	pick := func() (int, bool) {
		for tries := 0; tries < 8; tries++ {
			id := m.live[g.r.Intn(len(m.live))]
			if !touched[id] && liveSet[id] && id != m.origin {
				return id, true
			}
		}
		return 0, false
	}
	floor := m.n0 / 2
	if floor < 3 {
		floor = 3
	}
	var deltas []api.SessionDelta
	var inserted []int
	// A small session may run out of untouched IDs before k deltas; the
	// attempt cap then ends the batch short rather than spinning.
	for attempts := 0; len(deltas) < k && attempts < 16*k; attempts++ {
		switch x := g.r.Intn(10); {
		case x < 2 && len(liveSet) < m.capacity:
			id := m.next
			m.next++
			liveSet[id] = true
			touched[id] = true
			inserted = append(inserted, id)
			deltas = append(deltas, api.SessionDelta{Op: "insert", Point: randomPoint(g.r)})
		case x < 4 && len(liveSet) > floor:
			if id, ok := pick(); ok {
				delete(liveSet, id)
				touched[id] = true
				deltas = append(deltas, api.SessionDelta{Op: "delete", ID: id})
			}
		default:
			if id, ok := pick(); ok {
				touched[id] = true
				deltas = append(deltas, api.SessionDelta{Op: "retarget", ID: id, Point: randomPoint(g.r)})
			}
		}
	}
	if len(deltas) == 0 { // an empty batch is a client error
		for _, id := range m.live {
			if id != m.origin {
				deltas = append(deltas, api.SessionDelta{Op: "retarget", ID: id, Point: randomPoint(g.r)})
				break
			}
		}
	}
	m.live = m.live[:0]
	for id := range liveSet {
		m.live = append(m.live, id)
	}
	sort.Ints(m.live)
	return &op{
		kind: kUpdate, slot: slot, hot: -1,
		body:   mustJSON(api.SessionUpdateRequest{V: api.Version, Deltas: deltas}),
		points: append([]int(nil), m.live...), insert: inserted,
	}
}

// randomPoint is a planar 1-motion trajectory like motion.Random's.
func randomPoint(r *rand.Rand) [][]float64 {
	return [][]float64{
		{(r.Float64()*2 - 1) * 10, r.NormFloat64() * 5},
		{(r.Float64()*2 - 1) * 10, r.NormFloat64() * 5},
	}
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return b
}
