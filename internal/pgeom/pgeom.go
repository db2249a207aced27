// Package pgeom implements the paper's parallel geometry on the machine
// simulator: the static algorithms of Table 4 (convex hull, closest pair,
// antipodal vertices, minimal enclosing rectangle) and their steady-state
// versions of §5, which are the same algorithms with every predicate
// evaluated in the ordered field of rational functions at t → ∞
// (Lemma 5.1, Propositions 5.2–5.4, Theorem 5.8).
//
// All algorithms are expressed in the data movement operations of §2.6 —
// sort, merge, scan, semigroup, broadcast, grouping — so their simulated
// cost is Θ(√n) on the mesh and O(log² n) on the hypercube (sort-bounded),
// the Table 3/Table 4 shape.
package pgeom

import (
	"strconv"

	"dyncg/internal/colstore"
	"dyncg/internal/geom"
	"dyncg/internal/machine"
	"dyncg/internal/ratfun"
)

// DirLess is a total circular order on nonzero direction vectors,
// anchored at the positive x-axis and sweeping counterclockwise — the
// generic-field replacement for comparing the angles computed in Step 2
// of Lemma 5.5's algorithm (angles themselves are not field elements, but
// their order is decidable with sign tests: quadrant class plus one cross
// product). The direction sorts use dirCmp; DirLess is its test oracle.
func DirLess[T ratfun.Real[T]](a, b geom.Point[T]) bool {
	ha, hb := dirHalf(a), dirHalf(b)
	if ha != hb {
		return ha < hb
	}
	return geom.Cross(a, b).Sign() > 0
}

// dirHalf returns 0 for directions with angle in [0, π), 1 for [π, 2π).
func dirHalf[T ratfun.Real[T]](d geom.Point[T]) int {
	sy := d.Y.Sign()
	if sy > 0 || (sy == 0 && d.X.Sign() > 0) {
		return 0
	}
	return 1
}

// DirEq reports whether two directions are positively proportional.
func DirEq[T ratfun.Real[T]](a, b geom.Point[T]) bool {
	return geom.Cross(a, b).Sign() == 0 && geom.Dot(a, b).Sign() > 0
}

// dirCmp is the direction sorts' comparator: it returns 0 when
// DirEq(a, b), otherwise −1 when DirLess(a, b) and +1 when not. ha and hb
// are dirHalf(a) and dirHalf(b), computed once when an entry is placed.
// The cross sign is evaluated once and the dot sign only when the cross
// sign is 0.
func dirCmp[T ratfun.Real[T]](a, b geom.Point[T], ha, hb int) int {
	c := a.X.CrossSign(a.Y, b.X, b.Y)
	if c == 0 && a.X.DotSign(a.Y, b.X, b.Y) > 0 {
		return 0
	}
	if ha < hb || (ha == hb && c > 0) {
		return -1
	}
	return 1
}

// NearestNeighbor returns the index (into pts) of a nearest neighbour of
// pts[origin], excluding origin itself: broadcast the query point, Θ(1)
// local squared-distance arithmetic, then a semigroup argmin — exactly
// the algorithm of Proposition 5.2, costing Θ(√n) on the mesh and
// Θ(log n) on the hypercube. Instantiated at RatFun it is the
// steady-state nearest neighbour; at F64 the static one.
func NearestNeighbor[T ratfun.Real[T]](m *machine.M, pts []geom.Point[T], origin int, farthest bool) int {
	if m.Observed() {
		m.SpanBegin("nearest-neighbor",
			"n", strconv.Itoa(len(pts)), "origin", strconv.Itoa(origin))
		defer m.SpanEnd()
	}
	n := m.Size()
	seg := machine.WholeMachine(n)
	// Broadcast the query point.
	q := colstore.New[geom.Point[T]](n)
	q.Set(origin, pts[origin])
	machine.SpreadCols(m, q, seg)
	// Local distance + semigroup argmin/argmax.
	type cand struct {
		d  T
		id int
	}
	regs := colstore.New[cand](n)
	m.ChargeLocal(1)
	for i := range pts {
		if i == origin {
			continue
		}
		regs.Set(i, cand{d: geom.DistSq(pts[i], q.Val[i]), id: i})
	}
	machine.SemigroupCols(m, regs, seg, func(a, b cand) cand {
		c := a.d.Cmp(b.d)
		if farthest {
			c = -c
		}
		if c < 0 || (c == 0 && a.id < b.id) {
			return a
		}
		return b
	})
	if c, ok := regs.First(); ok {
		return c.id
	}
	return -1
}
