// Package geom implements the static planar computational geometry the
// paper builds on (Table 4): convex hull, closest pair, antipodal pairs
// via rotating calipers (Lemma 5.5, after [Shamos 1975]), diameter and
// farthest pair, and the minimum-area enclosing rectangle (Theorem 5.8).
//
// Everything is generic over the ordered field ratfun.Real. Instantiated
// at F64 the algorithms solve static (k = 0) problems; instantiated at
// RatFun they solve the steady-state (t → ∞) problems of §5 directly,
// because every predicate (orientation, distance comparison, projection
// comparison) becomes a sign test on bounded-degree rational functions —
// the systematic form of the paper's Lemma 5.1 reduction.
package geom

import (
	"sort"

	"dyncg/internal/ratfun"
)

// Point is a planar point over the ordered field T, tagged with the index
// of the moving point-object it represents.
type Point[T ratfun.Real[T]] struct {
	X, Y T
	ID   int
}

// Sub returns the vector a − b.
func (a Point[T]) Sub(b Point[T]) Point[T] {
	return Point[T]{X: a.X.Sub(b.X), Y: a.Y.Sub(b.Y), ID: a.ID}
}

// Neg returns −a.
func (a Point[T]) Neg() Point[T] {
	return Point[T]{X: a.X.Neg(), Y: a.Y.Neg(), ID: a.ID}
}

// Cross returns the 2-D cross product a × b.
func Cross[T ratfun.Real[T]](a, b Point[T]) T {
	return a.X.Mul(b.Y).Sub(a.Y.Mul(b.X))
}

// Dot returns the dot product a · b.
func Dot[T ratfun.Real[T]](a, b Point[T]) T {
	return a.X.Mul(b.X).Add(a.Y.Mul(b.Y))
}

// Orient returns the orientation of the triple (a, b, c): +1 for a left
// turn (counterclockwise), −1 for a right turn, 0 for collinear. This is
// the Θ(1) relative-position test of Proposition 5.4's proof. It equals
// Cross(b.Sub(a), c.Sub(a)).Sign() without building the cross product.
func Orient[T ratfun.Real[T]](a, b, c Point[T]) int {
	return a.X.OrientSign(a.Y, b.X, b.Y, c.X, c.Y)
}

// DistSq returns the squared distance between a and b; comparisons of
// squared distances avoid square roots, as in §4.1/§5.2.
func DistSq[T ratfun.Real[T]](a, b Point[T]) T {
	d := a.Sub(b)
	return Dot(d, d)
}

// cmpXY orders points lexicographically by (X, Y).
func cmpXY[T ratfun.Real[T]](a, b Point[T]) int {
	if c := a.X.Cmp(b.X); c != 0 {
		return c
	}
	return a.Y.Cmp(b.Y)
}

// Hull returns the extreme points of the convex hull of pts in
// counterclockwise order, starting from the lexicographically smallest
// point (Andrew's monotone chain; collinear boundary points are not
// extreme points and are dropped, matching the paper's definition of
// extreme point in §4.2).
func Hull[T ratfun.Real[T]](pts []Point[T]) []Point[T] {
	if len(pts) == 0 {
		return nil
	}
	ps := append([]Point[T](nil), pts...)
	sort.Slice(ps, func(i, j int) bool { return cmpXY(ps[i], ps[j]) < 0 })
	// Deduplicate coincident points.
	uniq := ps[:1]
	for _, p := range ps[1:] {
		if cmpXY(uniq[len(uniq)-1], p) != 0 {
			uniq = append(uniq, p)
		}
	}
	ps = uniq
	if len(ps) <= 2 {
		return ps
	}
	build := func(seq []Point[T]) []Point[T] {
		var st []Point[T]
		for _, p := range seq {
			for len(st) >= 2 && Orient(st[len(st)-2], st[len(st)-1], p) <= 0 {
				st = st[:len(st)-1]
			}
			st = append(st, p)
		}
		return st
	}
	lower := build(ps)
	rev := make([]Point[T], len(ps))
	for i := range ps {
		rev[i] = ps[len(ps)-1-i]
	}
	upper := build(rev)
	hull := append(lower[:len(lower)-1], upper[:len(upper)-1]...)
	if len(hull) == 0 { // all collinear: keep the two endpoints
		hull = []Point[T]{ps[0], ps[len(ps)-1]}
	}
	return hull
}

// IsExtreme reports whether q is an extreme point of hull(pts ∪ {q}).
func IsExtreme[T ratfun.Real[T]](pts []Point[T], q Point[T]) bool {
	h := Hull(append(append([]Point[T]{}, pts...), q))
	for _, p := range h {
		if p.ID == q.ID && cmpXY(p, q) == 0 {
			return true
		}
	}
	return false
}

// NearestTo returns the index (into pts) of a point nearest to the query
// point, by linear semigroup-style scan — the serial counterpart of
// Proposition 5.2.
func NearestTo[T ratfun.Real[T]](pts []Point[T], q Point[T]) int {
	best := -1
	var bestD T
	for i, p := range pts {
		d := DistSq(p, q)
		if best < 0 || d.Cmp(bestD) < 0 {
			best, bestD = i, d
		}
	}
	return best
}

// FarthestFrom is NearestTo with the order reversed.
func FarthestFrom[T ratfun.Real[T]](pts []Point[T], q Point[T]) int {
	best := -1
	var bestD T
	for i, p := range pts {
		d := DistSq(p, q)
		if best < 0 || d.Cmp(bestD) > 0 {
			best, bestD = i, d
		}
	}
	return best
}

// ClosestPair returns indices (into pts) of a closest pair and their
// squared distance, by the classic divide-and-conquer over the generic
// field (serial counterpart of Proposition 5.3). Requires ≥ 2 points.
func ClosestPair[T ratfun.Real[T]](pts []Point[T]) (int, int, T) {
	if len(pts) < 2 {
		panic("geom: ClosestPair needs at least two points")
	}
	idx := make([]int, len(pts))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return cmpXY(pts[idx[a]], pts[idx[b]]) < 0 })
	bi, bj := idx[0], idx[1]
	bd := DistSq(pts[bi], pts[bj])
	var rec func(lo, hi int, byY []int)
	rec = func(lo, hi int, byY []int) {
		if hi-lo <= 3 {
			for a := lo; a < hi; a++ {
				for b := a + 1; b < hi; b++ {
					if d := DistSq(pts[idx[a]], pts[idx[b]]); d.Cmp(bd) < 0 {
						bi, bj, bd = idx[a], idx[b], d
					}
				}
			}
			sort.Slice(byY, func(a, b int) bool { return pts[byY[a]].Y.Cmp(pts[byY[b]].Y) < 0 })
			return
		}
		mid := (lo + hi) / 2
		midX := pts[idx[mid]].X
		left := append([]int{}, byY[:mid-lo]...)
		right := append([]int{}, byY[mid-lo:]...)
		copy(left, idx[lo:mid])
		copy(right, idx[mid:hi])
		rec(lo, mid, left)
		rec(mid, hi, right)
		// Merge by Y back into byY.
		i, j := 0, 0
		for k := range byY {
			switch {
			case i >= len(left):
				byY[k] = right[j]
				j++
			case j >= len(right):
				byY[k] = left[i]
				i++
			case pts[left[i]].Y.Cmp(pts[right[j]].Y) <= 0:
				byY[k] = left[i]
				i++
			default:
				byY[k] = right[j]
				j++
			}
		}
		// Strip: points with (x − midX)² < best d².
		var strip []int
		for _, id := range byY {
			dx := pts[id].X.Sub(midX)
			if dx.Mul(dx).Cmp(bd) < 0 {
				strip = append(strip, id)
			}
		}
		for a := 0; a < len(strip); a++ {
			for b := a + 1; b < len(strip) && b <= a+7; b++ {
				if d := DistSq(pts[strip[a]], pts[strip[b]]); d.Cmp(bd) < 0 {
					bi, bj, bd = strip[a], strip[b], d
				}
			}
		}
	}
	byY := append([]int{}, idx...)
	rec(0, len(idx), byY)
	return bi, bj, bd
}
