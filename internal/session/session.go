// Package session implements stateful batch-dynamic scenario sessions —
// the serving-layer counterpart of the retained merge tree of
// internal/penvelope. A session pins a simulated machine and keeps the
// intermediate envelope state of one algorithm resident, so a batch of k
// trajectory inserts/deletes/retargets recomputes only the O(k·log n)
// dirty merge paths (one Lemma 3.1 pass per dirty node) instead of
// re-running the full Theorem 3.2 construction over all n functions.
// That saves simulated messages, not host time: on the pinned
// BenchmarkSessionUpdate rows (BENCH_perf.json) a batch of 16 of 64
// points takes 167 520 ns/op against 88 771 ns/op for a rebuild of the
// same churned population. ROADMAP item 1 holds the open work.
//
// The design follows the parallel batch-dynamic literature (Wang et al.,
// PAPERS.md) in structure and the Dallant–Iacono lower bounds in
// spirit: exact from-scratch recomputation on the same machine
// (Engine.Rebuild) is retained as the correctness oracle, and every
// incremental answer is required — and tested — to be bit-identical to
// it.
//
// The package has two layers: Engine (one scenario's points, leaf-slot
// table, retained trees, and derived answer) and Registry (named live
// sessions with a capacity bound, idle-TTL eviction, and per-session
// locking; machine release is a callback so the HTTP layer can return
// pinned machines to its warm pool).
package session

import (
	"errors"
	"fmt"
	"maps"
	"slices"

	"dyncg/internal/core"
	"dyncg/internal/curve"
	"dyncg/internal/keys"
	"dyncg/internal/machine"
	"dyncg/internal/motion"
	"dyncg/internal/penvelope"
	"dyncg/internal/pieces"
	"dyncg/internal/poly"
)

// Typed errors of the session layer (the server maps them to HTTP
// statuses). Validation failures of points, batches, and configs wrap
// motion.ErrBadSystem; capacity failures wrap machine.ErrTooFewPEs.
var (
	// ErrNoSession: the session ID is unknown (never created, deleted,
	// or TTL-evicted).
	ErrNoSession = errors.New("session: no such session")
	// ErrTooManySessions: the registry is at its session capacity.
	ErrTooManySessions = errors.New("session: session limit reached")
	// ErrBroken: a previous update failed mid-recompute and the retained
	// trees may be inconsistent; the session only answers with this error
	// from then on (delete it and create a fresh one).
	ErrBroken = errors.New("session: broken by a failed update")
)

// Algo names a session algorithm — the subset of the serving surface
// whose intermediate state is envelope-shaped and therefore maintainable
// in retained merge trees.
type Algo string

// The session algorithms.
const (
	// ClosestPointSeq / FarthestPointSeq: Theorem 4.1 sequences against
	// a fixed origin point (one d²-curve tree).
	ClosestPointSeq  Algo = "closest-point-sequence"
	FarthestPointSeq Algo = "farthest-point-sequence"
	// ClosestPairSeq / FarthestPairSeq: the §6 pair sequences — closest
	// pair and diameter over time (one tree over all unordered pairs).
	ClosestPairSeq  Algo = "closest-pair-sequence"
	FarthestPairSeq Algo = "farthest-pair-sequence"
	// CubeEdge / SmallestEver / Containment: the §4.3 envelope-backed
	// measures (2d coordinate-envelope trees plus the shared derivation
	// helpers of internal/core).
	CubeEdge     Algo = "smallest-hypercube-edge"
	SmallestEver Algo = "smallest-ever-hypercube"
	Containment  Algo = "containment-intervals"
)

// ParseAlgo validates a wire algorithm name.
func ParseAlgo(s string) (Algo, error) {
	switch a := Algo(s); a {
	case ClosestPointSeq, FarthestPointSeq, ClosestPairSeq, FarthestPairSeq,
		CubeEdge, SmallestEver, Containment:
		return a, nil
	}
	return "", fmt.Errorf("session: unknown session algorithm %q: %w", s, motion.ErrBadSystem)
}

// structure classes: how an algorithm maps points to leaf slots.
const (
	classPoint = iota // one slot per non-origin point (d² curves)
	classPair         // one slot per unordered point pair
	classSpan         // one slot per point, in 2·d coordinate trees
)

func (a Algo) class() int {
	switch a {
	case ClosestPointSeq, FarthestPointSeq:
		return classPoint
	case ClosestPairSeq, FarthestPairSeq:
		return classPair
	}
	return classSpan
}

func (a Algo) kind() pieces.Kind {
	if a == FarthestPointSeq || a == FarthestPairSeq {
		return pieces.Max
	}
	return pieces.Min
}

// Op is one update operation kind.
type Op string

// The update operations.
const (
	OpInsert   Op = "insert"   // add a new trajectory; its assigned ID is returned
	OpDelete   Op = "delete"   // remove a trajectory by ID
	OpRetarget Op = "retarget" // replace the trajectory of an existing ID
)

// Delta is one element of an update batch. Point is required for insert
// and retarget; ID for delete and retarget.
type Delta struct {
	Op    Op
	ID    int
	Point motion.Point
}

// Config configures a session engine.
type Config struct {
	Algorithm Algo
	// Origin is the index (into the initial point list) of the query
	// point for the point-sequence algorithms. The origin gets a stable
	// ID like every other point but cannot be deleted.
	Origin int
	// Dims are the hyper-rectangle side lengths (containment-intervals).
	Dims []float64
	// Capacity is the maximum number of live points over the session's
	// lifetime; the machine and the leaf slots are sized for it once at
	// creation (0 = max(2·n, 8)).
	Capacity int
	// MaxDegree bounds the trajectory degree of every point ever in the
	// session (0 = max(observed initial degree, 1)). Inserts and
	// retargets beyond it are rejected.
	MaxDegree int
}

// PEs returns the PE prescription for a session: the Θ(λ(n, s))
// envelope allocation of Theorem 3.2 sized for the session's capacity
// (not its current population), so the pinned machine never needs to
// grow. topo selects the λ_M ("mesh") or λ_H bound.
func PEs(topo string, algo Algo, capacity, maxDegree int) int {
	k := max(maxDegree, 1)
	switch algo.class() {
	case classPair:
		return penvelope.PEs(topo, capacity*(capacity-1)/2, 2*k)
	case classSpan:
		return penvelope.PEs(topo, capacity, k+2)
	}
	return penvelope.PEs(topo, capacity, 2*k)
}

// Result is a session's maintained answer; the field matching the
// algorithm is set (Edge for CubeEdge, MinD/MinT for SmallestEver, …).
type Result struct {
	Neighbors []core.NeighborEvent // point sequences
	Pairs     []core.PairEvent     // pair sequences
	Edge      pieces.Piecewise     // smallest-hypercube-edge
	MinD      float64              // smallest-ever-hypercube
	MinT      float64
	Intervals []core.Interval // containment-intervals
}

// ApplyStats reports the incremental work of one update batch, summed
// over the session's retained trees.
type ApplyStats struct {
	DirtyLeaves int
	MergedNodes int
}

// Resolve returns cfg with the defaults New applies for the initial
// system sys filled in: a zero Capacity becomes max(2·n, 8) and a zero
// MaxDegree becomes max(sys.K, 1). Callers that size the machine before
// the engine exists size it with the resolved values.
func (cfg Config) Resolve(sys *motion.System) Config {
	if cfg.Capacity == 0 {
		cfg.Capacity = max(2*sys.N(), 8)
	}
	if cfg.MaxDegree == 0 {
		cfg.MaxDegree = max(sys.K, 1)
	}
	return cfg
}

// slotTable maps keys — point IDs (classPoint, classSpan) or ID pairs
// {a, b} with a < b (classPair) — onto leaf slots. Slots are the piece
// IDs behind every answer and every charged cost, so the allocation
// order is part of the output: a freed slot is reused LIFO, and a new
// one comes from the high-water mark.
type slotTable[K comparable] struct {
	slotOf map[K]int
	keyAt  []K   // slot → key; stale on free slots (see key)
	free   []int // LIFO
	hw     int   // next never-used slot
}

func newSlotTable[K comparable](slots int) slotTable[K] {
	return slotTable[K]{slotOf: make(map[K]int, slots), keyAt: make([]K, slots)}
}

func (t *slotTable[K]) insert(k K) int {
	slot := t.hw
	if n := len(t.free); n > 0 {
		slot, t.free = t.free[n-1], t.free[:n-1]
	} else {
		t.hw++
	}
	t.slotOf[k] = slot
	t.keyAt[slot] = k
	return slot
}

func (t *slotTable[K]) remove(k K) (int, bool) {
	slot, ok := t.slotOf[k]
	if ok {
		delete(t.slotOf, k)
		t.free = append(t.free, slot)
	}
	return slot, ok
}

// key returns the key held at slot, and false when the slot is free.
func (t *slotTable[K]) key(slot int) (K, bool) {
	k := t.keyAt[slot]
	s, ok := t.slotOf[k]
	return k, ok && s == slot
}

func (t slotTable[K]) clone() slotTable[K] {
	t.slotOf = maps.Clone(t.slotOf)
	t.keyAt = slices.Clone(t.keyAt)
	t.free = slices.Clone(t.free)
	return t
}

// state is an engine's mutable bookkeeping: the live points by stable
// ID and their leaf slots. Only the table of the engine's class is set.
type state struct {
	pts    map[int]motion.Point
	nextID int
	points slotTable[int]    // classPoint, classSpan
	pairs  slotTable[[2]int] // classPair
}

func (s *state) clone() state {
	return state{pts: maps.Clone(s.pts), nextID: s.nextID, points: s.points.clone(), pairs: s.pairs.clone()}
}

// pairKey is the slot-table key of the unordered pair {a, b}.
func pairKey(a, b int) [2]int {
	if a > b {
		a, b = b, a
	}
	return [2]int{a, b}
}

// Engine is one scenario's batch-dynamic state: the live points and
// their leaf slots, the retained merge trees, and the derived answer. An
// Engine is bound to the machine it was created on and is not safe for
// concurrent use (the Registry serialises access).
type Engine struct {
	algo     Algo
	m        *machine.M
	d        int // coordinate dimension
	maxK     int // trajectory degree bound
	capacity int
	originID int // stable ID of the query point (classPoint), else -1
	dims     []float64

	live state

	// trees: classPoint/classPair hold one tree; classSpan holds 2·d
	// (min₀, max₀, min₁, max₁, …).
	trees []*penvelope.MergeTree

	res     Result
	updates uint64
	broken  error
}

// New builds a session engine on machine m from the initial points —
// one from-scratch tree construction (the same cost as the one-shot
// algorithm) that leaves the intermediate state resident. The machine
// must satisfy PEs(topo, algo, capacity, maxDegree) for cfg.Resolve;
// undersized machines are rejected with machine.ErrTooFewPEs.
func New(m *machine.M, cfg Config, pts []motion.Point) (*Engine, error) {
	if _, err := ParseAlgo(string(cfg.Algorithm)); err != nil {
		return nil, err
	}
	sys, err := motion.NewSystem(pts)
	if err != nil {
		return nil, err
	}
	cfg = cfg.Resolve(sys)
	if sys.K > cfg.MaxDegree {
		return nil, fmt.Errorf("session: initial system has degree %d, exceeding max_degree %d: %w",
			sys.K, cfg.MaxDegree, motion.ErrBadSystem)
	}
	if cfg.Capacity < len(pts) {
		return nil, fmt.Errorf("session: capacity %d below initial population %d: %w",
			cfg.Capacity, len(pts), motion.ErrBadSystem)
	}
	e := &Engine{
		algo:     cfg.Algorithm,
		m:        m,
		d:        sys.D,
		maxK:     cfg.MaxDegree,
		capacity: cfg.Capacity,
		originID: -1,
		live:     state{pts: make(map[int]motion.Point, len(pts)), nextID: len(pts)},
	}
	for id, p := range pts {
		e.live.pts[id] = p
	}
	switch e.algo.class() {
	case classPoint:
		if cfg.Origin < 0 || cfg.Origin >= len(pts) {
			return nil, fmt.Errorf("session: origin %d out of range: %w", cfg.Origin, motion.ErrBadSystem)
		}
		e.originID = cfg.Origin
	case classPair:
		if len(pts) < 2 {
			return nil, fmt.Errorf("session: pair sequence needs at least two points: %w", motion.ErrBadSystem)
		}
	case classSpan:
		if e.algo == Containment {
			if len(cfg.Dims) != sys.D {
				return nil, fmt.Errorf("session: %d dims for %d-dimensional system: %w",
					len(cfg.Dims), sys.D, motion.ErrBadSystem)
			}
			e.dims = append([]float64(nil), cfg.Dims...)
		}
	}
	// Initial slots: points in ID order, the origin skipped; pairs
	// (a < b) in lexicographic ID order.
	if e.algo.class() == classPair {
		e.live.pairs = newSlotTable[[2]int](e.slots())
		for a := range pts {
			for b := a + 1; b < len(pts); b++ {
				e.live.pairs.insert([2]int{a, b})
			}
		}
	} else {
		e.live.points = newSlotTable[int](e.slots())
		for id := range pts {
			if id != e.originID {
				e.live.points.insert(id)
			}
		}
	}
	e.trees, err = e.newTrees()
	if err != nil {
		return nil, err
	}
	var buf [4]pieces.Piecewise
	res, err := e.deriveFrom(e.roots(buf[:0]))
	if err != nil {
		return nil, err
	}
	e.res = res
	return e, nil
}

// slots returns the leaf-slot count of every tree: one slot per point,
// or per unordered pair, at capacity.
func (e *Engine) slots() int {
	if e.algo.class() == classPair {
		return e.capacity * (e.capacity - 1) / 2
	}
	return e.capacity
}

// newTrees builds the engine's tree layout from scratch over the live
// state's leaves.
func (e *Engine) newTrees() ([]*penvelope.MergeTree, error) {
	n := 1
	if e.algo.class() == classSpan {
		n = 2 * e.d
	}
	trees := make([]*penvelope.MergeTree, n)
	for ti := range trees {
		fs := make([]pieces.Piecewise, e.slots())
		for slot := range fs {
			fs[slot] = e.leaf(ti, slot, &e.live)
		}
		var err error
		if trees[ti], err = penvelope.NewMergeTree(e.m, fs, treeKind(e.algo, ti)); err != nil {
			return nil, err
		}
	}
	return trees, nil
}

// leaf is the piece string of slot in tree ti under state s, tagged with
// the slot (slots are the stable run IDs of the Lemma 3.1 machinery),
// or nil when the slot is free: the d²-to-origin curve of a point, the
// d² curve of a pair, or coordinate ti/2 of a point.
func (e *Engine) leaf(ti, slot int, s *state) pieces.Piecewise {
	var f poly.Poly
	if e.algo.class() == classPair {
		pr, ok := s.pairs.key(slot)
		if !ok {
			return nil
		}
		f = s.pts[pr[0]].DistSq(s.pts[pr[1]])
	} else {
		id, ok := s.points.key(slot)
		if !ok {
			return nil
		}
		if e.algo.class() == classPoint {
			f = s.pts[e.originID].DistSq(s.pts[id])
		} else {
			f = s.pts[id].Coord[ti/2]
		}
	}
	return pieces.Total(curve.NewPoly(f), slot)
}

// Algorithm returns the session's algorithm.
func (e *Engine) Algorithm() Algo { return e.algo }

// Capacity returns the maximum live population.
func (e *Engine) Capacity() int { return e.capacity }

// MaxDegree returns the trajectory degree bound.
func (e *Engine) MaxDegree() int { return e.maxK }

// Origin returns the stable ID of the query point (-1 when the
// algorithm has none).
func (e *Engine) Origin() int { return e.originID }

// Updates returns the number of applied update batches.
func (e *Engine) Updates() uint64 { return e.updates }

// Points returns the live stable IDs in ascending order.
func (e *Engine) Points() []int { return keys.Sorted(e.live.pts) }

// Point returns the current trajectory of a live stable ID.
func (e *Engine) Point(id int) (motion.Point, bool) {
	p, ok := e.live.pts[id]
	return p, ok
}

// Result returns the maintained answer (valid after New and after every
// successful Apply; not a deep copy — callers must not mutate it).
func (e *Engine) Result() Result { return e.res }

func (e *Engine) validatePoint(p motion.Point) error {
	if p.Dim() != e.d {
		return fmt.Errorf("session: point has dimension %d, want %d: %w", p.Dim(), e.d, motion.ErrBadSystem)
	}
	if deg := p.Degree(); deg > e.maxK {
		return fmt.Errorf("session: trajectory degree %d exceeds the session bound %d: %w",
			deg, e.maxK, motion.ErrBadSystem)
	}
	return nil
}

// Apply applies one update batch atomically: the whole batch is applied
// to a clone of the live state first and validated there, so a rejected
// batch leaves the session untouched; then the clone is committed,
// exactly the dirty leaf slots are rewritten and the retained trees redo
// their dirty merge paths. Returns the stable IDs assigned to the
// batch's inserts, in order. The machine's Stats delta across the call
// is the simulated incremental cost.
func (e *Engine) Apply(deltas []Delta) ([]int, ApplyStats, error) {
	var st ApplyStats
	if e.broken != nil {
		return nil, st, fmt.Errorf("%w: %v", ErrBroken, e.broken)
	}
	if len(deltas) == 0 {
		return nil, st, fmt.Errorf("session: empty update batch: %w", motion.ErrBadSystem)
	}
	next := e.live.clone()
	dirty := make(map[int]bool)
	var inserted []int
	for i, d := range deltas {
		id, err := e.apply(&next, dirty, d)
		if err != nil {
			return nil, st, fmt.Errorf("session: update %d (%s): %w", i, d.Op, err)
		}
		if d.Op == OpInsert {
			inserted = append(inserted, id)
		}
	}
	// Whole-batch validation of the final population: the §2.4 system
	// model (shared dimension, distinct initial positions) must hold for
	// the points that remain.
	final := make([]motion.Point, 0, len(next.pts))
	for _, id := range keys.Sorted(next.pts) {
		final = append(final, next.pts[id])
	}
	if len(final) == 0 {
		return nil, st, fmt.Errorf("session: batch empties the session: %w", motion.ErrBadSystem)
	}
	if _, err := motion.NewSystem(final); err != nil {
		return nil, st, err
	}

	ups := make([][]penvelope.TreeUpdate, len(e.trees))
	for _, slot := range keys.Sorted(dirty) {
		for ti := range ups {
			ups[ti] = append(ups[ti], penvelope.TreeUpdate{Slot: slot, F: e.leaf(ti, slot, &next)})
		}
	}

	// Commit, then run the incremental recomputes. A failure past this
	// point (a genuine λ under-allocation surfacing mid-merge) leaves the
	// trees inconsistent: mark the session broken.
	e.live = next
	for ti, u := range ups {
		if len(u) == 0 {
			continue
		}
		ts, err := e.trees[ti].Update(e.m, u)
		st.DirtyLeaves += ts.DirtyLeaves
		st.MergedNodes += ts.MergedNodes
		if err != nil {
			e.broken = err
			return nil, st, fmt.Errorf("%w: %v", ErrBroken, err)
		}
	}
	var buf [4]pieces.Piecewise
	res, err := e.deriveFrom(e.roots(buf[:0]))
	if err != nil {
		e.broken = err
		return nil, st, fmt.Errorf("%w: %v", ErrBroken, err)
	}
	e.res = res
	e.updates++
	return inserted, st, nil
}

// apply applies one delta to state s, recording dirty slots, and
// returns the ID an insert assigns. Inserts allocate slots and deletes
// free them; leaf values are built from the final state afterwards, so
// insert-then-delete of the same ID within a batch nets out to an empty
// dirty slot write.
func (e *Engine) apply(s *state, dirty map[int]bool, d Delta) (int, error) {
	pairs := e.algo.class() == classPair
	switch d.Op {
	case OpInsert:
		if err := e.validatePoint(d.Point); err != nil {
			return 0, err
		}
		if len(s.pts) >= e.capacity {
			return 0, fmt.Errorf("session: insert exceeds session capacity %d: %w", e.capacity, machine.ErrTooFewPEs)
		}
		id := s.nextID
		s.nextID++
		s.pts[id] = d.Point
		if !pairs {
			dirty[s.points.insert(id)] = true
			return id, nil
		}
		// New pairs take slots in ascending order of the partner ID.
		for _, other := range keys.Sorted(s.pts) {
			if other != id {
				dirty[s.pairs.insert(pairKey(other, id))] = true
			}
		}
		return id, nil
	case OpDelete:
		if _, ok := s.pts[d.ID]; !ok {
			return 0, fmt.Errorf("session: point %d does not exist: %w", d.ID, motion.ErrBadSystem)
		}
		if d.ID == e.originID {
			return 0, fmt.Errorf("session: cannot delete the origin point %d: %w", d.ID, motion.ErrBadSystem)
		}
		delete(s.pts, d.ID)
		if !pairs {
			slot, _ := s.points.remove(d.ID)
			dirty[slot] = true
			return 0, nil
		}
		// Freed pair slots join the free list in ascending partner order.
		for _, other := range keys.Sorted(s.pts) {
			if slot, ok := s.pairs.remove(pairKey(other, d.ID)); ok {
				dirty[slot] = true
			}
		}
	case OpRetarget:
		if _, ok := s.pts[d.ID]; !ok {
			return 0, fmt.Errorf("session: point %d does not exist: %w", d.ID, motion.ErrBadSystem)
		}
		if err := e.validatePoint(d.Point); err != nil {
			return 0, err
		}
		s.pts[d.ID] = d.Point
		switch {
		case pairs:
			for other := range s.pts {
				if slot, ok := s.pairs.slotOf[pairKey(other, d.ID)]; ok {
					dirty[slot] = true
				}
			}
		case d.ID == e.originID:
			// The query trajectory changed: every d² leaf is dirty.
			for _, slot := range s.points.slotOf {
				dirty[slot] = true
			}
		default:
			dirty[s.points.slotOf[d.ID]] = true
		}
	default:
		return 0, fmt.Errorf("session: unknown op %q: %w", d.Op, motion.ErrBadSystem)
	}
	return 0, nil
}

// roots appends the maintained root envelope of every tree to dst
// (a caller's stack buffer, so deriving the answer allocates nothing
// for planar layouts).
func (e *Engine) roots(dst []pieces.Piecewise) []pieces.Piecewise {
	for _, t := range e.trees {
		dst = append(dst, t.Root())
	}
	return dst
}

// deriveFrom converts the trees' root envelopes into the session's
// answer via the same derivation code the one-shot algorithms use
// (internal/core).
func (e *Engine) deriveFrom(roots []pieces.Piecewise) (Result, error) {
	var res Result
	switch e.algo.class() {
	case classPoint:
		root := roots[0]
		res.Neighbors = make([]core.NeighborEvent, len(root))
		for i, p := range root {
			res.Neighbors[i] = core.NeighborEvent{Point: e.live.points.keyAt[p.ID], Lo: p.Lo, Hi: p.Hi}
		}
	case classPair:
		root := roots[0]
		res.Pairs = make([]core.PairEvent, len(root))
		for i, p := range root {
			pr := e.live.pairs.keyAt[p.ID]
			res.Pairs[i] = core.PairEvent{A: pr[0], B: pr[1], Lo: p.Lo, Hi: p.Hi}
		}
	default:
		spans := make([]pieces.Piecewise, e.d)
		for c := 0; c < e.d; c++ {
			diff, err := core.SpanFromEnvelopes(e.m, roots[2*c+1], roots[2*c], c)
			if err != nil {
				return res, err
			}
			spans[c] = diff
		}
		switch e.algo {
		case Containment:
			ivs, err := core.ContainmentFromSpans(e.m, spans, e.dims)
			if err != nil {
				return res, err
			}
			res.Intervals = ivs
		default:
			edge, err := core.EdgeFromSpans(e.m, spans)
			if err != nil {
				return res, err
			}
			res.Edge = edge
			if e.algo == SmallestEver {
				dmin, tmin, err := core.MinimizeEdge(e.m, edge)
				if err != nil {
					return res, err
				}
				res.MinD, res.MinT = dmin, tmin
			}
		}
	}
	return res, nil
}

// Rebuild recomputes the session's answer from scratch on the same
// machine — one full envelope pass per tree over its current leaves,
// then the same derivation — without touching the retained state. It is
// the exact correctness oracle of the batch-dynamic design: Apply's
// maintained result must be bit-identical to it.
func (e *Engine) Rebuild() (Result, error) {
	if e.broken != nil {
		return Result{}, fmt.Errorf("%w: %v", ErrBroken, e.broken)
	}
	roots := make([]pieces.Piecewise, len(e.trees))
	for ti, t := range e.trees {
		var err error
		if roots[ti], err = t.Rebuild(e.m); err != nil {
			return Result{}, err
		}
	}
	return e.deriveFrom(roots)
}

// treeKind returns the envelope kind of tree index i under the engine's
// tree layout.
func treeKind(a Algo, i int) pieces.Kind {
	if a.class() == classSpan {
		if i%2 == 1 {
			return pieces.Max
		}
		return pieces.Min
	}
	return a.kind()
}
