package core

import (
	"fmt"
	"sort"
	"strconv"

	"dyncg/internal/colstore"
	"dyncg/internal/machine"
	"dyncg/internal/motion"
	"dyncg/internal/penvelope"
	"dyncg/internal/pieces"
)

// NeighborEvent is one element of the chronological sequence R of
// Theorem 4.1: Point is the closest (or farthest) point to the query
// point throughout [Lo, Hi].
type NeighborEvent struct {
	Point  int
	Lo, Hi float64
}

// ClosestPointSequence constructs the sequence R of closest points to
// sys.Points[origin] in chronological order (Theorem 4.1): broadcast the
// query trajectory, let each PE form the squared-distance polynomial
// d²_{0j}(t) of degree ≤ 2k, and build the minimum function with
// Theorem 3.2. Machine allocation: λ(n−1, 2k) PEs (use MeshFor/CubeFor
// with s = 2k); time Θ(λ^{1/2}(n−1, 2k)) mesh, Θ(log² n) hypercube.
func ClosestPointSequence(m *machine.M, sys *motion.System, origin int) ([]NeighborEvent, error) {
	return neighborSequence(m, sys, origin, pieces.Min)
}

// FarthestPointSequence constructs the sequence R′ of farthest points
// (Theorem 4.1, max function).
func FarthestPointSequence(m *machine.M, sys *motion.System, origin int) ([]NeighborEvent, error) {
	return neighborSequence(m, sys, origin, pieces.Max)
}

func neighborSequence(m *machine.M, sys *motion.System, origin int, kind pieces.Kind) ([]NeighborEvent, error) {
	if origin < 0 || origin >= sys.N() {
		return nil, fmt.Errorf("core: origin %d out of range: %w", origin, motion.ErrBadSystem)
	}
	if m.Observed() {
		name := "thm4.1-closest-seq"
		if kind == pieces.Max {
			name = "thm4.1-farthest-seq"
		}
		m.SpanBegin(name, "n", strconv.Itoa(sys.N()), "origin", strconv.Itoa(origin))
		defer m.SpanEnd()
	}
	// Broadcast the query point's trajectory (one broadcast, §4.1).
	n := m.Size()
	fregs := colstore.New[motion.Point](n)
	fregs.Set(origin%n, sys.Points[origin])
	machine.SpreadCols(m, fregs, machine.WholeMachine(n))
	m.ChargeLocal(1) // each PE forms d²_{0j}(t), a Θ(1) polynomial op

	cs, ids := sys.DistSqCurves(origin)
	env, err := penvelope.EnvelopeOfCurves(m, cs, kind)
	if err != nil {
		return nil, err
	}
	out := make([]NeighborEvent, len(env))
	for i, p := range env {
		out[i] = NeighborEvent{Point: ids[p.ID], Lo: p.Lo, Hi: p.Hi}
	}
	return out, nil
}

// SerialClosestPointSequence is the serial baseline for Theorem 4.1
// (divide-and-conquer envelope in the style of [Atallah 1985]).
func SerialClosestPointSequence(sys *motion.System, origin int, kind pieces.Kind) []NeighborEvent {
	cs, ids := sys.DistSqCurves(origin)
	env := pieces.EnvelopeOfCurves(cs, kind)
	out := make([]NeighborEvent, len(env))
	for i, p := range env {
		out[i] = NeighborEvent{Point: ids[p.ID], Lo: p.Lo, Hi: p.Hi}
	}
	return out
}

// Collision records that points A and B coincide at time T.
type Collision struct {
	T    float64
	A, B int
}

// CollisionTimes returns the chronological list of times at which
// sys.Points[origin] collides with any other point (Theorem 4.2):
// broadcast the query trajectory, solve d²_{0j}(t) = 0 locally (≤ 2k
// positive roots per PE, Θ(1) serial time), then sort the union —
// Θ(n^{1/2}) on a mesh of 4^⌈log₄ n⌉ PEs, Θ(log² n) on a hypercube of
// 2^⌈log₂ n⌉ PEs (use MeshOf/CubeOf with n·(2k+1) capacity for the
// one-root-per-PE layout).
func CollisionTimes(m *machine.M, sys *motion.System, origin int) ([]Collision, error) {
	if m.Observed() {
		m.SpanBegin("thm4.2-collisions", "n", strconv.Itoa(sys.N()), "origin", strconv.Itoa(origin))
		defer m.SpanEnd()
	}
	n := m.Size()
	fregs := colstore.New[motion.Point](n)
	fregs.Set(origin%n, sys.Points[origin])
	machine.SpreadCols(m, fregs, machine.WholeMachine(n))

	// Each PE j solves d²_{0j}(t) = 0 on [0, ∞): Θ(1) local work.
	m.ChargeLocal(1)
	emitted := make([][]Collision, n)
	total := 0
	for j, q := range sys.Points {
		if j == origin {
			continue
		}
		d2 := sys.Points[origin].DistSq(q)
		for _, r := range d2.RootsNonNeg() {
			emitted[j%n] = append(emitted[j%n], Collision{T: r, A: origin, B: j})
			total++
		}
	}
	if total > n {
		return nil, fmt.Errorf("core: %d collision events exceed %d PEs: %w", total, n, machine.ErrTooFewPEs)
	}
	// Pack (prefix + bounded routes) and sort chronologically.
	regs := packLists(m, emitted)
	machine.SortCols(m, regs, func(a, b Collision) bool {
		if a.T != b.T {
			return a.T < b.T
		}
		return a.B < b.B
	})
	return regs.Gather(), nil
}

// SerialCollisionTimes is the serial baseline for Theorem 4.2.
func SerialCollisionTimes(sys *motion.System, origin int) []Collision {
	var out []Collision
	for j, q := range sys.Points {
		if j == origin {
			continue
		}
		for _, r := range sys.Points[origin].DistSq(q).RootsNonNeg() {
			out = append(out, Collision{T: r, A: origin, B: j})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].T != out[j].T {
			return out[i].T < out[j].T
		}
		return out[i].B < out[j].B
	})
	return out
}

// packLists packs per-PE bounded lists into one register per PE via a
// parallel prefix and a constant number of structured routes.
func packLists[T any](m *machine.M, lists [][]T) colstore.File[T] {
	if m.Observed() {
		m.SpanBegin("pack", "n", strconv.Itoa(len(lists)))
		defer m.SpanEnd()
	}
	n := len(lists)
	counts := machine.GetCols[int](m, n)
	defer machine.PutCols(m, counts)
	m.ChargeLocal(1)
	maxLen := 0
	for i := 0; i < n; i++ {
		counts.Set(i, len(lists[i]))
		if len(lists[i]) > maxLen {
			maxLen = len(lists[i])
		}
	}
	machine.ScanCols(m, counts, machine.WholeMachine(n), machine.Forward,
		func(a, b int) int { return a + b })
	regs := colstore.New[T](n)
	for i := range lists {
		base := counts.Val[i] - len(lists[i])
		for j, v := range lists[i] {
			regs.Set(base+j, v)
		}
	}
	for j := 0; j < maxLen; j++ {
		var src, dst []int
		for i := range lists {
			if j < len(lists[i]) {
				src = append(src, i)
				dst = append(dst, counts.Val[i]-len(lists[i])+j)
			}
		}
		m.ChargeRoute(src, dst)
	}
	return regs
}
