package geom

import "dyncg/internal/ratfun"

// This file implements the rotating-calipers constructions of §5.4:
// antipodal pairs (Lemma 5.5, after [Shamos 1975]), diameter and farthest
// pair (Proposition 5.6, Corollary 5.7), and the minimum-area enclosing
// rectangle (Theorem 5.8). Inputs are the extreme points of a convex
// polygon in counterclockwise order, as produced by Hull.

// AntipodalPairs returns all antipodal vertex pairs of the convex polygon
// hull (indices into hull). A pair is antipodal when distinct parallel
// lines of support pass through its two vertices (Figure 6a).
func AntipodalPairs[T ratfun.Real[T]](hull []Point[T]) [][2]int {
	n := len(hull)
	switch n {
	case 0, 1:
		return nil
	case 2:
		return [][2]int{{0, 1}}
	}
	// A vertex's support directions form the angular cone between the
	// outward normals of its two incident edges (the "sector" of
	// Figure 6b, dualised). A pair (u, v) is antipodal exactly when u's
	// cone intersects the negation of v's cone: then a common direction
	// admits parallel support lines through both. Each test is Θ(1) field
	// arithmetic; the quadratic pair scan is the serial oracle (the
	// machine-parallel version in internal/pgeom follows Lemma 5.5's
	// sort-and-group formulation).
	normal := func(i int) Point[T] {
		e := hull[(i+1)%n].Sub(hull[i])
		return Point[T]{X: e.Y, Y: e.X.Neg()} // outward for CCW
	}
	inCone := func(d, a, b Point[T]) bool {
		// d within the CCW cone from a to b (cone spans < π).
		return Cross(a, d).Sign() >= 0 && Cross(d, b).Sign() >= 0
	}
	overlap := func(a1, b1, a2, b2 Point[T]) bool {
		return inCone(a1, a2, b2) || inCone(b1, a2, b2) ||
			inCone(a2, a1, b1) || inCone(b2, a1, b1)
	}
	var pairs [][2]int
	for u := 0; u < n; u++ {
		au, bu := normal((u+n-1)%n), normal(u)
		for v := u + 1; v < n; v++ {
			av, bv := normal((v+n-1)%n), normal(v)
			if overlap(au, bu, av.Neg(), bv.Neg()) {
				pairs = append(pairs, [2]int{u, v})
			}
		}
	}
	return pairs
}

// Diameter returns the squared diameter of the convex polygon hull and an
// antipodal pair realising it (Proposition 5.6: the diameter is attained
// by an antipodal pair).
func Diameter[T ratfun.Real[T]](hull []Point[T]) (d2 T, pair [2]int) {
	pairs := AntipodalPairs(hull)
	if len(pairs) == 0 {
		var zero T
		return zero, [2]int{0, 0}
	}
	best := 0
	bestD := DistSq(hull[pairs[0][0]], hull[pairs[0][1]])
	for i := 1; i < len(pairs); i++ {
		d := DistSq(hull[pairs[i][0]], hull[pairs[i][1]])
		if d.Cmp(bestD) > 0 {
			best, bestD = i, d
		}
	}
	return bestD, pairs[best]
}

// FarthestPair returns IDs of a farthest pair of the point set and their
// squared distance (Corollary 5.7: hull, then diameter).
func FarthestPair[T ratfun.Real[T]](pts []Point[T]) (a, b Point[T], d2 T) {
	h := Hull(pts)
	if len(h) == 1 {
		return h[0], h[0], DistSq(h[0], h[0])
	}
	d2, pair := Diameter(h)
	return h[pair[0]], h[pair[1]], d2
}

// Rect is an enclosing rectangle: the four corners in counterclockwise
// order, the index of the hull edge its base contains (Theorem 5.8: a
// minimal rectangle has a side collinear with a hull edge), and its area.
type Rect[T ratfun.Real[T]] struct {
	Corners [4]Point[T]
	Edge    int
	Area    T
}

// MinAreaRect returns a minimum-area rectangle enclosing the convex
// polygon hull (≥ 3 vertices), implementing Theorem 5.8's per-edge
// construction: for each edge e, the rectangle R_e with one side on e is
// determined by the extreme projections along e and the farthest vertex
// perpendicular to e; the answer is the minimum-area R_e.
func MinAreaRect[T ratfun.Real[T]](hull []Point[T]) Rect[T] {
	n := len(hull)
	if n < 3 {
		panic("geom: MinAreaRect requires a non-degenerate polygon")
	}
	var best Rect[T]
	haveBest := false
	for e := 0; e < n; e++ {
		p, q := hull[e], hull[(e+1)%n]
		u := q.Sub(p) // edge direction
		uu := Dot(u, u)
		// Extremes of projection along u and of perpendicular distance.
		minP, maxP := Dot(hull[0].Sub(p), u), Dot(hull[0].Sub(p), u)
		maxH := Cross(u, hull[0].Sub(p))
		for _, v := range hull[1:] {
			pr := Dot(v.Sub(p), u)
			if pr.Cmp(minP) < 0 {
				minP = pr
			}
			if pr.Cmp(maxP) > 0 {
				maxP = pr
			}
			h := Cross(u, v.Sub(p))
			if h.Cmp(maxH) > 0 {
				maxH = h
			}
		}
		area := maxP.Sub(minP).Mul(maxH).Div(uu)
		if !haveBest || area.Cmp(best.Area) < 0 {
			haveBest = true
			// Corners: p + (pr/uu)·u + (h/uu)·n with n = (−u.Y, u.X).
			nrm := Point[T]{X: u.Y.Neg(), Y: u.X}
			at := func(pr, h T) Point[T] {
				sx := p.X.Add(u.X.Mul(pr).Div(uu)).Add(nrm.X.Mul(h).Div(uu))
				sy := p.Y.Add(u.Y.Mul(pr).Div(uu)).Add(nrm.Y.Mul(h).Div(uu))
				return Point[T]{X: sx, Y: sy}
			}
			var zero T
			best = Rect[T]{
				Corners: [4]Point[T]{
					at(minP, zero), at(maxP, zero), at(maxP, maxH), at(minP, maxH),
				},
				Edge: e,
				Area: area,
			}
		}
	}
	return best
}
