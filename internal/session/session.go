// Package session implements stateful batch-dynamic scenario sessions.
// A session pins a simulated machine, keeps one algorithm's points and
// the per-slot leaf curves of its envelopes resident, and answers every
// update batch of trajectory inserts, deletes and retargets with one
// from-scratch Theorem 3.2 pass per envelope (penvelope.Envelope) over
// the cached leaves, of which the batch rewrites only the dirty ones.
// An update therefore charges exactly what Engine.Rebuild charges on the
// same population; what a session saves over a one-shot request is the
// system build, the machine checkout and the re-sent points, not
// simulated work. Re-merging only the dirty root paths of a retained
// merge tree, one Lemma 3.1 pass per node, moves far fewer simulated
// messages but lost to this pass in host time on every pinned
// BenchmarkSessionUpdate row, and in simulated time once a few scattered
// leaves were dirty (EXPERIMENTS, "One Theorem 3.2 pass per session
// batch").
//
// Engine.Rebuild recomputes the answer from the cached leaves on the
// same machine and is the audit oracle of the maintained answer; the
// differential battery also checks every cached leaf against the live
// points, so a dirty slot that Apply failed to rewrite surfaces.
//
// The package has two layers: Engine (one scenario's points, leaf-slot
// table, cached leaves, and derived answer) and Registry (named live
// sessions with a capacity bound, idle-TTL eviction, and per-session
// locking; machine release is a callback so the HTTP layer can return
// pinned machines to its warm pool).
package session

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"slices"

	"dyncg/internal/core"
	"dyncg/internal/curve"
	"dyncg/internal/dsseq"
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
)

// Algo names a session algorithm — the subset of the serving surface
// whose answer derives from envelopes of per-point or per-pair curves.
type Algo string

// The session algorithms.
const (
	// ClosestPointSeq / FarthestPointSeq: Theorem 4.1 sequences against
	// a fixed origin point (one envelope of d² curves).
	ClosestPointSeq  Algo = "closest-point-sequence"
	FarthestPointSeq Algo = "farthest-point-sequence"
	// ClosestPairSeq / FarthestPairSeq: the §6 pair sequences — closest
	// pair and diameter over time (one envelope over all unordered pairs).
	ClosestPairSeq  Algo = "closest-pair-sequence"
	FarthestPairSeq Algo = "farthest-pair-sequence"
	// CubeEdge / SmallestEver / Containment: the §4.3 envelope-backed
	// measures (2d coordinate envelopes plus the shared derivation
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
	classSpan         // one slot per point, in 2·d coordinate envelopes
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

// ApplyStats reports the work of one update batch, summed over the
// session's envelopes.
type ApplyStats struct {
	// DirtyLeaves counts the leaf slots the batch rewrote.
	DirtyLeaves int
	// MergedNodes counts the Lemma 3.1 block merges of the batch's
	// Theorem 3.2 passes: NextPow2(slots) − 1 per envelope.
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
// their leaf slots, the cached leaves of every envelope, and the derived
// answer. An Engine is bound to the machine it was created on and is not
// safe for concurrent use (the Registry serialises access).
type Engine struct {
	algo     Algo
	m        *machine.M
	d        int // coordinate dimension
	maxK     int // trajectory degree bound
	capacity int
	originID int // stable ID of the query point (classPoint), else -1
	dims     []float64

	live state

	// leaves[ti][slot] is e.leaf(ti, slot, &e.live), over NextPow2(slots)
	// slots (Envelope's layout). classPoint/classPair have one envelope;
	// classSpan has 2·d (min₀, max₀, min₁, max₁, …).
	leaves [][]pieces.Piecewise

	res     Result
	updates uint64
}

// New builds a session engine on machine m from the initial points —
// one from-scratch envelope pass per envelope (the same cost as the
// one-shot algorithm) whose leaves stay resident. The machine
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
	n := 1
	if e.algo.class() == classSpan {
		n = 2 * e.d
	}
	e.leaves = make([][]pieces.Piecewise, n)
	for ti := range e.leaves {
		e.leaves[ti] = make([]pieces.Piecewise, dsseq.NextPow2(e.slots()))
		for slot := range e.slots() {
			e.leaves[ti][slot] = e.leaf(ti, slot, &e.live)
		}
	}
	if e.res, err = e.solve(e.leaves, &e.live); err != nil {
		return nil, err
	}
	return e, nil
}

// slots returns the leaf-slot count of every envelope: one slot per
// point, or per unordered pair, at capacity.
func (e *Engine) slots() int {
	if e.algo.class() == classPair {
		return e.capacity * (e.capacity - 1) / 2
	}
	return e.capacity
}

// leaf is the piece string of slot in envelope ti under state s, tagged with
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
// to a clone of the live state and validated there, the dirty leaf slots
// are rewritten in a copy of the cached leaves, and one envelope pass
// per envelope derives the new answer; only when all of that succeeds
// are the state, the leaves and the answer committed, so a failed batch
// leaves the session untouched. Returns the stable IDs assigned to the
// batch's inserts, in order. The machine's Stats delta across the call
// equals that of a following Rebuild.
func (e *Engine) Apply(deltas []Delta) ([]int, ApplyStats, error) {
	return e.ApplyContext(context.Background(), deltas)
}

// ApplyContext is Apply under ctx: a batch whose ctx is done by the time
// its answer is derived is discarded like a failed one, before anything
// is committed, and the error wraps ctx.Err().
func (e *Engine) ApplyContext(ctx context.Context, deltas []Delta) ([]int, ApplyStats, error) {
	var st ApplyStats
	if len(deltas) == 0 {
		return nil, st, fmt.Errorf("session: empty update batch: %w", motion.ErrBadSystem)
	}
	next := e.live.clone()
	dirty := make(map[int]bool)
	var inserted []int
	moved := make([]int, 0, len(deltas))
	for i, d := range deltas {
		id, err := e.apply(&next, dirty, d)
		if err != nil {
			return nil, st, fmt.Errorf("session: update %d (%s): %w", i, d.Op, err)
		}
		switch d.Op {
		case OpInsert:
			inserted = append(inserted, id)
			moved = append(moved, id)
		case OpRetarget:
			moved = append(moved, d.ID)
		}
	}
	if len(next.pts) == 0 {
		return nil, st, fmt.Errorf("session: batch empties the session: %w", motion.ErrBadSystem)
	}
	if err := distinctStarts(next.pts, moved); err != nil {
		return nil, st, err
	}

	leaves := make([][]pieces.Piecewise, len(e.leaves))
	for ti := range leaves {
		leaves[ti] = slices.Clone(e.leaves[ti])
		for slot := range dirty {
			leaves[ti][slot] = e.leaf(ti, slot, &next)
		}
	}
	res, err := e.solve(leaves, &next)
	if err != nil {
		return nil, st, err
	}
	if err := ctx.Err(); err != nil {
		return nil, st, fmt.Errorf("session: batch not committed: %w", err)
	}
	e.live, e.leaves, e.res = next, leaves, res
	e.updates++
	st.DirtyLeaves = len(leaves) * len(dirty)
	st.MergedNodes = len(leaves) * (dsseq.NextPow2(e.slots()) - 1)
	return inserted, st, nil
}

// distinctStarts checks the §2.4 system model's distinct initial
// positions over the population pts after a batch that inserted or
// retargeted the points moved. Every other point was already distinct
// from the rest, so only the moved points still live need checking,
// each against the whole population: one pass over it, comparing first
// coordinates before whole positions. The error names, by stable ID,
// the lowest moved point that collides and its lowest partner.
func distinctStarts(pts map[int]motion.Point, moved []int) error {
	moved = slices.DeleteFunc(moved, func(id int) bool { _, live := pts[id]; return !live })
	var buf [64]float64 // a batch of up to 64 moved points compares on the stack
	first := buf[:0]
	for _, id := range moved {
		first = append(first, startX(pts[id]))
	}
	a, b := -1, -1
	for q, pq := range pts {
		x := startX(pq)
		for i, id := range moved {
			if first[i] != x || id == q || !pts[id].SameStart(pq) {
				continue
			}
			if a < 0 || id < a || id == a && q < b {
				a, b = id, q
			}
		}
	}
	if a < 0 {
		return nil
	}
	return fmt.Errorf("session: points %d and %d share an initial position (violates §2.4): %w",
		min(a, b), max(a, b), motion.ErrBadSystem)
}

// startX is p's initial first coordinate (a session's points have at
// least one: New rejects a system of dimension 0).
func startX(p motion.Point) float64 { return p.Coord[0].Eval(0) }

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

// solve runs one Theorem 3.2 envelope pass per envelope over leaves and
// derives the session's answer from the roots under state s.
func (e *Engine) solve(leaves [][]pieces.Piecewise, s *state) (Result, error) {
	var buf [4]pieces.Piecewise // planar layouts derive without allocating
	roots := buf[:0]
	for ti, fs := range leaves {
		root, err := penvelope.Envelope(e.m, fs, envelopeKind(e.algo, ti))
		if err != nil {
			return Result{}, err
		}
		roots = append(roots, root)
	}
	return e.deriveFrom(roots, s)
}

// deriveFrom converts the root envelopes into the session's answer under
// state s via the same derivation code the one-shot algorithms use
// (internal/core).
func (e *Engine) deriveFrom(roots []pieces.Piecewise, s *state) (Result, error) {
	var res Result
	switch e.algo.class() {
	case classPoint:
		root := roots[0]
		res.Neighbors = make([]core.NeighborEvent, len(root))
		for i, p := range root {
			res.Neighbors[i] = core.NeighborEvent{Point: s.points.keyAt[p.ID], Lo: p.Lo, Hi: p.Hi}
		}
	case classPair:
		root := roots[0]
		res.Pairs = make([]core.PairEvent, len(root))
		for i, p := range root {
			pr := s.pairs.keyAt[p.ID]
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
// machine — one envelope pass per envelope over the cached leaves, then
// the same derivation — without touching the session. It is the audit
// oracle of the maintained answer: Result must equal it exactly, and it
// charges what Apply charges for a batch that leaves the same leaves.
func (e *Engine) Rebuild() (Result, error) { return e.solve(e.leaves, &e.live) }

// envelopeKind returns the kind of envelope i under the engine's layout.
func envelopeKind(a Algo, i int) pieces.Kind {
	if a.class() == classSpan {
		if i%2 == 1 {
			return pieces.Max
		}
		return pieces.Min
	}
	return a.kind()
}
