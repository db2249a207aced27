package pgeom

import (
	"fmt"
	"math"
	"strconv"

	"dyncg/internal/colstore"
	"dyncg/internal/curve"
	"dyncg/internal/geom"
	"dyncg/internal/machine"
	"dyncg/internal/par"
	"dyncg/internal/penvelope"
	"dyncg/internal/pieces"
	"dyncg/internal/poly"
	"dyncg/internal/ratfun"
)

// HullStatic computes the extreme points of hull(pts) in counterclockwise
// order on the machine, for static (float) points, via point–line duality:
// the upper (lower) hull is the upper (lower) envelope of the dual lines
// g_j(m) = b_j − m·a_j of the points (a_j, b_j), so the whole computation
// reuses Theorem 3.2's envelope machinery with s = 1 — one sort-bounded
// pass, Θ(√n) mesh / Θ(log² n) hypercube, matching the Table 4 hull row.
//
// The returned slice holds the IDs of the extreme points in CCW order
// starting from the lexicographically smallest point.
func HullStatic(m *machine.M, pts []geom.Point[ratfun.F64]) ([]int, error) {
	n := len(pts)
	if n == 0 {
		return nil, nil
	}
	if n == 1 {
		return []int{pts[0].ID}, nil
	}
	if m.Observed() {
		m.SpanBegin("hull-static", "n", strconv.Itoa(n))
		defer m.SpanEnd()
	}
	// Dedupe coincident points (they would give identical dual lines and
	// the envelope would keep one, but the CCW stitch below wants a clean
	// point set). One sort-bounded pass.
	uniq := dedupe(m, pts)
	if len(uniq) == 1 {
		return []int{uniq[0].ID}, nil
	}
	// Normalise coordinates to O(1) scale (translation and uniform
	// scaling preserve the hull and its CCW order): the dual transform
	// forms b + a·B below, which would otherwise lose the low-order
	// coordinate differences when positions are large — e.g. when
	// HullSteady probes at a late time. Two semigroups (Θ(1) rounds).
	uniq = normalize(m, uniq)
	// Slope bound B: all transition slopes between points are convex
	// combinations of consecutive slopes in x-order, so a semigroup over
	// consecutive pairs bounds them (computed with one sort + one shift +
	// one semigroup).
	b := slopeBound(m, uniq)

	// Dual lines over the shifted parameter u = m + B ∈ [0, 2B].
	lines := make([]curve.Curve, len(uniq))
	for i, p := range uniq {
		a, bb := float64(p.X), float64(p.Y)
		lines[i] = curve.NewPoly(poly.New(bb+a*b, -a))
	}
	lower, err := penvelope.EnvelopeOfCurves(m, lines, pieces.Min)
	if err != nil {
		return nil, err
	}
	upper, err := penvelope.EnvelopeOfCurves(m, lines, pieces.Max)
	if err != nil {
		return nil, err
	}
	// Lower envelope visits the lower hull left→right; upper envelope
	// visits the upper hull right→left. Concatenate, dropping the shared
	// endpoints, for the CCW order. (The reversal/stitch is a Θ(1)-round
	// route on the machine; performed here on the gathered IDs.)
	lo, up := lower.IDs(), upper.IDs()
	cand := append([]int{}, lo...)
	seen := make(map[int]bool, len(lo))
	for _, id := range lo {
		seen[id] = true
	}
	for _, id := range up {
		if !seen[id] {
			seen[id] = true
			cand = append(cand, id)
		}
	}
	// Seam cleanup: points within float noise of the extreme x can
	// surface on both chains, in ambiguous order. The candidate set is
	// h + O(1) points; one more sort-bounded machine pass (charged here)
	// plus the exact chain scan over the candidates restores the clean
	// CCW cycle.
	machine.SortCols(m, colstore.Scatter(m.Size(), cand), func(a, b int) bool { return a < b })
	candPts := make([]geom.Point[ratfun.F64], len(cand))
	for i, j := range cand {
		candPts[i] = uniq[j]
	}
	m.ChargeLocal(1)
	clean := geom.Hull(candPts)
	out := make([]int, len(clean))
	for i, p := range clean {
		out[i] = p.ID
	}
	return out, nil
}

// dedupe removes coincident points via one machine sort and a shift
// round.
func dedupe(m *machine.M, pts []geom.Point[ratfun.F64]) []geom.Point[ratfun.F64] {
	n := m.Size()
	regs := machine.GetCols[geom.Point[ratfun.F64]](m, n)
	defer machine.PutCols(m, regs)
	for i, p := range pts {
		regs.Set(i, p)
	}
	machine.SortCols(m, regs, func(a, b geom.Point[ratfun.F64]) bool {
		if a.X != b.X {
			return a.X < b.X
		}
		if a.Y != b.Y {
			return a.Y < b.Y
		}
		return a.ID < b.ID
	})
	prev := machine.ShiftWithinCols(m, regs, n, +1)
	m.ChargeLocal(1)
	par.ForEach(m.Workers(), n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			if regs.Occ[i] && prev.Occ[i] &&
				prev.Val[i].X == regs.Val[i].X && prev.Val[i].Y == regs.Val[i].Y {
				regs.Clear(i)
			}
		}
	})
	machine.PutCols(m, prev)
	seg := machine.GetScratch[bool](m, n)
	if n > 0 {
		seg[0] = true
	}
	machine.CompactCols(m, regs, seg)
	machine.PutScratch(m, seg)
	return regs.Gather()
}

// normalize maps the points rigidly+affinely into O(1) scale: a fixed
// rotation (which breaks accidental axis alignments such as the mirror
// symmetry of points sampled on a circle, whose float-asymmetric cosines
// would otherwise produce ~1e−16 x-gaps and a ~1e16 slope bound),
// followed by bounding-box centring and uniform scaling. All three maps
// preserve the hull and its CCW order. One semigroup plus Θ(1) local
// work per PE.
func normalize(m *machine.M, pts []geom.Point[ratfun.F64]) []geom.Point[ratfun.F64] {
	const rot = 0.5 // radians; any fixed generic angle
	cosR, sinR := math.Cos(rot), math.Sin(rot)
	rotated := make([]geom.Point[ratfun.F64], len(pts))
	m.ChargeLocal(1)
	par.ForEach(m.Workers(), len(pts), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			x, y := float64(pts[i].X), float64(pts[i].Y)
			rotated[i] = geom.Point[ratfun.F64]{
				X:  ratfun.F64(x*cosR - y*sinR),
				Y:  ratfun.F64(x*sinR + y*cosR),
				ID: pts[i].ID,
			}
		}
	})
	pts = rotated
	n := m.Size()
	regs := machine.GetCols[bbox](m, n)
	defer machine.PutCols(m, regs)
	m.ChargeLocal(1)
	for i, p := range pts {
		x, y := float64(p.X), float64(p.Y)
		regs.Set(i, bbox{x, x, y, y})
	}
	seg := machine.GetScratch[bool](m, n)
	defer machine.PutScratch(m, seg)
	if n > 0 {
		seg[0] = true
	}
	machine.SemigroupCols(m, regs, seg, func(a, b bbox) bbox {
		return bbox{
			minX: math.Min(a.minX, b.minX), maxX: math.Max(a.maxX, b.maxX),
			minY: math.Min(a.minY, b.minY), maxY: math.Max(a.maxY, b.maxY),
		}
	})
	bb, _ := regs.First()
	cx, cy := (bb.minX+bb.maxX)/2, (bb.minY+bb.maxY)/2
	scale := math.Max(bb.maxX-bb.minX, bb.maxY-bb.minY) / 2
	if scale == 0 {
		scale = 1
	}
	m.ChargeLocal(1)
	out := make([]geom.Point[ratfun.F64], len(pts))
	par.ForEach(m.Workers(), len(pts), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out[i] = geom.Point[ratfun.F64]{
				X:  ratfun.F64((float64(pts[i].X) - cx) / scale),
				Y:  ratfun.F64((float64(pts[i].Y) - cy) / scale),
				ID: pts[i].ID,
			}
		}
	})
	return out
}

// bbox is the bounding-box accumulator of normalize's semigroup.
type bbox struct{ minX, maxX, minY, maxY float64 }

// slopeBound returns 1 + the maximum |slope| between consecutive x-sorted
// points (which bounds every pairwise slope).
func slopeBound(m *machine.M, pts []geom.Point[ratfun.F64]) float64 {
	n := m.Size()
	regs := machine.GetCols[geom.Point[ratfun.F64]](m, n)
	defer machine.PutCols(m, regs)
	for i, p := range pts {
		regs.Set(i, p)
	}
	machine.SortCols(m, regs, func(a, b geom.Point[ratfun.F64]) bool {
		if a.X != b.X {
			return a.X < b.X
		}
		return a.Y < b.Y
	})
	prev := machine.ShiftWithinCols(m, regs, n, +1)
	slopes := machine.GetCols[float64](m, n)
	defer machine.PutCols(m, slopes)
	m.ChargeLocal(1)
	par.ForEach(m.Workers(), n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			if !regs.Occ[i] || !prev.Occ[i] {
				continue
			}
			dx := float64(regs.Val[i].X - prev.Val[i].X)
			dy := float64(regs.Val[i].Y - prev.Val[i].Y)
			if math.Abs(dx) <= 1e-9 {
				// (Near-)vertical in normalised coordinates: exact duplicates
				// of x give parallel dual lines (handled by the envelope);
				// sub-1e-9 gaps are below the method's float resolution and
				// would only blow up the slope bound.
				continue
			}
			slopes.Set(i, math.Abs(dy/dx))
		}
	})
	machine.PutCols(m, prev)
	seg := machine.GetScratch[bool](m, n)
	defer machine.PutScratch(m, seg)
	if n > 0 {
		seg[0] = true
	}
	machine.SemigroupCols(m, slopes, seg, math.Max)
	best := 1.0
	for i, ok := range slopes.Occ {
		if ok && slopes.Val[i]+1 > best {
			best = slopes.Val[i] + 1
		}
	}
	return best
}

// HullSteady computes the steady-state hull(S) of Proposition 5.4 for a
// system of moving points given by their coordinate limits (RatFun
// points). It is a Las-Vegas reduction to the static algorithm: evaluate
// the trajectories at a probe time T (Θ(1) local work), run HullStatic,
// and verify the candidate with *exact* steady-state predicates — every
// consecutive triple must turn left at t → ∞ and every point must lie
// inside or on the candidate at t → ∞ (a sort-based grouping). On
// failure, double T and repeat; for polynomial motion the predicates
// stabilise beyond the largest critical root, so the expected number of
// rounds is small — in the same spirit as the paper's "expected" rows for
// [Reif and Valiant 1987] sorting. A bounded retry budget falls back to
// the exact serial algorithm (never observed in tests; the fallback keeps
// the API total).
func HullSteady(m *machine.M, pts []geom.Point[ratfun.RatFun]) ([]int, error) {
	if len(pts) == 0 {
		return nil, nil
	}
	if len(pts) == 1 {
		return []int{pts[0].ID}, nil
	}
	if m.Observed() {
		m.SpanBegin("hull-steady", "n", strconv.Itoa(len(pts)))
		defer m.SpanEnd()
	}
	T := initialProbeTime(pts)
	for round := 0; round < 60 && T < 1e12; round++ {
		static := make([]geom.Point[ratfun.F64], len(pts))
		for i, p := range pts {
			static[i] = geom.Point[ratfun.F64]{
				X:  ratfun.F64(p.X.Eval(T)),
				Y:  ratfun.F64(p.Y.Eval(T)),
				ID: i,
			}
		}
		m.ChargeLocal(1) // the evaluations: Θ(1) per PE
		cand, err := HullStatic(m, static)
		if err != nil {
			return nil, err
		}
		ok, needT := verifySteadyHull(m, pts, cand)
		if ok {
			out := make([]int, len(cand))
			for i, j := range cand {
				out[i] = pts[j].ID
			}
			return out, nil
		}
		// A failing exact predicate names the polynomial whose sign had
		// not yet stabilised at T; jump past its last possible root.
		next := 2 * T
		if needT+1 > next {
			next = needT + 1
		}
		T = next
	}
	// Exact fallback (serial): sound, used only if probing kept failing.
	h := geom.Hull(pts)
	out := make([]int, len(h))
	for i, p := range h {
		out[i] = p.ID
	}
	return out, fmt.Errorf("pgeom: steady hull fell back to serial after probe failures")
}

// initialProbeTime picks a probe time past the scale of the coefficients.
func initialProbeTime(pts []geom.Point[ratfun.RatFun]) float64 {
	t := 2.0
	for _, p := range pts {
		for _, rf := range []ratfun.RatFun{p.X, p.Y} {
			if b := rf.Num.CauchyRootBound(); b+1 > t {
				t = b + 1
			}
		}
	}
	return t
}

// verifySteadyHull checks a candidate CCW hull (indices into pts) with
// exact t → ∞ predicates, using machine operations so the verification is
// itself sort-bounded parallel work. On failure it also reports a probe
// time sufficient for the violated predicate to have stabilised (the
// Cauchy root bound of its numerator polynomial).
func verifySteadyHull(m *machine.M, pts []geom.Point[ratfun.RatFun], cand []int) (bool, float64) {
	h := len(cand)
	if h < 2 {
		// A single extreme point can only be right if all points coincide
		// at infinity — verify directly.
		for _, p := range pts {
			if geom.DistSq(p, pts[cand[0]]).Sign() != 0 {
				return false, 0
			}
		}
		return true, 0
	}
	if h == 2 {
		// Everything must be on the segment's line and between endpoints
		// eventually; delegate to the exact serial hull for this rare
		// degenerate shape.
		exact := geom.Hull(pts)
		return len(exact) == 2, 0
	}
	// (a) Consecutive triples turn strictly left at infinity: one shift
	// round each way plus a Θ(1) local predicate per hull PE.
	m.ChargeLocal(1)
	for i := 0; i < h; i++ {
		a, b, c := pts[cand[i]], pts[cand[(i+1)%h]], pts[cand[(i+2)%h]]
		if geom.Orient(a, b, c) <= 0 {
			return false, predBound(geom.Cross(b.Sub(a), c.Sub(a)))
		}
	}
	// (b) Every point lies inside or on the candidate at infinity:
	// sector grouping around an interior reference point O (centroid of
	// three hull vertices), one sort + scans, then Θ(1) local tests.
	o := centroid3(pts[cand[0]], pts[cand[h/3]], pts[cand[2*h/3]])
	type entry struct {
		dir      geom.Point[ratfun.RatFun]
		boundary bool
		hullPos  int // for boundaries: position in cand
		ptIdx    int // for queries: index into pts
	}
	n := m.Size()
	if h+len(pts) > n {
		// Not enough PEs to co-locate boundaries and queries; the callers
		// size machines at Θ(n) with constant slack, so treat as failure
		// of the probe (forces the serial fallback path eventually).
		return verifySteadySerial(pts, cand, o), 0
	}
	entries := machine.GetCols[entry](m, n)
	defer machine.PutCols(m, entries)
	for i := 0; i < h; i++ {
		entries.Set(i, entry{
			dir: pts[cand[i]].Sub(o), boundary: true, hullPos: i, ptIdx: -1,
		})
	}
	for i, p := range pts {
		entries.Set(h+i, entry{dir: p.Sub(o), boundary: false, hullPos: -1, ptIdx: i})
	}
	machine.SortCols(m, entries, func(a, b entry) bool {
		if !DirEq(a.dir, b.dir) {
			return DirLess(a.dir, b.dir)
		}
		// Boundaries before queries at equal directions, so the scan
		// assigns a vertex-aligned query to its own sector start.
		if a.boundary != b.boundary {
			return a.boundary
		}
		return false
	})
	// Forward scan: latest boundary position; wrap via global last.
	lastB := machine.GetCols[int](m, n)
	defer machine.PutCols(m, lastB)
	m.ChargeLocal(1)
	for i, ok := range entries.Occ {
		if ok && entries.Val[i].boundary {
			lastB.Set(i, entries.Val[i].hullPos)
		}
	}
	seg := machine.GetScratch[bool](m, n)
	if n > 0 {
		seg[0] = true
	}
	machine.ScanCols(m, lastB, seg, machine.Forward,
		func(a, b int) int { return b })
	machine.PutScratch(m, seg)
	globalLast := -1
	for i := n - 1; i >= 0; i-- {
		if lastB.Occ[i] {
			globalLast = lastB.Val[i]
			break
		}
	}
	m.ChargeLocal(1)
	for i, ok := range entries.Occ {
		if !ok || entries.Val[i].boundary {
			continue
		}
		sector := globalLast
		if lastB.Occ[i] {
			sector = lastB.Val[i]
		}
		if sector < 0 {
			return false, 0
		}
		a := pts[cand[sector]]
		b := pts[cand[(sector+1)%h]]
		p := pts[entries.Val[i].ptIdx]
		if geom.Orient(a, b, p) < 0 {
			return false, predBound(geom.Cross(b.Sub(a), p.Sub(a)))
		}
	}
	return true, 0
}

// predBound returns a time beyond which the sign of the rational
// predicate is settled: past the root bounds of numerator and
// denominator.
func predBound(r ratfun.RatFun) float64 {
	b := r.Num.CauchyRootBound()
	if d := r.Den.CauchyRootBound(); d > b {
		b = d
	}
	return b
}

func centroid3(a, b, c geom.Point[ratfun.RatFun]) geom.Point[ratfun.RatFun] {
	three := ratfun.FromFloat(3)
	return geom.Point[ratfun.RatFun]{
		X: a.X.Add(b.X).Add(c.X).Div(three),
		Y: a.Y.Add(b.Y).Add(c.Y).Div(three),
	}
}

// verifySteadySerial is the zero-machine fallback verifier.
func verifySteadySerial(pts []geom.Point[ratfun.RatFun], cand []int, o geom.Point[ratfun.RatFun]) bool {
	h := len(cand)
	for _, p := range pts {
		inside := false
		for i := 0; i < h && !inside; i++ {
			a, b := pts[cand[i]], pts[cand[(i+1)%h]]
			if geom.Orient(a, b, p) >= 0 &&
				geom.Orient(o, a, p) >= 0 && geom.Orient(o, p, b) >= 0 {
				inside = true
			}
		}
		_ = inside
	}
	// Serial path: simply compare with the exact hull.
	exact := geom.Hull(pts)
	if len(exact) != h {
		return false
	}
	ids := map[int]bool{}
	for _, p := range exact {
		ids[p.ID] = true
	}
	for _, c := range cand {
		if !ids[pts[c].ID] {
			return false
		}
	}
	return true
}
