package pgeom

import (
	"strconv"

	"dyncg/internal/geom"
	"dyncg/internal/machine"
	"dyncg/internal/ratfun"
)

// This file implements Lemma 5.5 (antipodal pairs via edge-ray sectors,
// Figure 6), Proposition 5.6 / Corollary 5.7 (diameter and farthest
// pair), and Theorem 5.8 / Corollary 5.9 (minimal-area enclosing
// rectangle) as machine algorithms. All are sort-bounded (grouping =
// sort + scan, §2.6) and generic over the ordered field, so one code path
// serves both the static rows of Table 4 and the steady-state rows of
// Table 3.

// sectorOwners implements the grouping step shared by Lemma 5.5 Step 6
// and Theorem 5.8 Step 3: the hull's edge directions divide the circle of
// directions into sectors, sector [E_{j}, E_{j+1}) belonging to vertex
// j+1 (Figure 6b); each query direction learns the vertex (or two
// vertices, when it coincides with an edge ray) whose sector contains it.
//
// hull is the CCW vertex sequence; queries are nonzero directions. The
// result maps each query index to 1–2 hull positions.
func sectorOwners[T ratfun.Real[T]](m *machine.M, hull []geom.Point[T], queries []geom.Point[T]) [][]int {
	h := len(hull)
	n := m.Size()
	type entry struct {
		dir      geom.Point[T]
		boundary bool
		owner    int // boundary: vertex whose sector starts here
		qIdx     int // query index
	}
	if h+len(queries) > n {
		panic("pgeom: machine too small for sector grouping")
	}
	entries := machine.GetCols[entry](m, n)
	defer machine.PutCols(m, entries)
	for j := 0; j < h; j++ {
		e := hull[(j+1)%h].Sub(hull[j]) // direction of edge j
		entries.Set(j, entry{dir: e, boundary: true, owner: (j + 1) % h, qIdx: -1})
	}
	for q, d := range queries {
		entries.Set(h+q, entry{dir: d, boundary: false, owner: -1, qIdx: q})
	}
	machine.SortCols(m, entries, func(a, b entry) bool {
		if !DirEq(a.dir, b.dir) {
			return DirLess(a.dir, b.dir)
		}
		if a.boundary != b.boundary {
			return a.boundary // boundary first so equal queries see it
		}
		if a.boundary {
			return a.owner < b.owner
		}
		return a.qIdx < b.qIdx
	})
	// Forward scan: last boundary so far (owner and its direction).
	type seen struct {
		owner int
		dir   geom.Point[T]
	}
	lastB := machine.GetCols[seen](m, n)
	defer machine.PutCols(m, lastB)
	m.ChargeLocal(1)
	for i, ok := range entries.Occ {
		if ok && entries.Val[i].boundary {
			lastB.Set(i, seen{owner: entries.Val[i].owner, dir: entries.Val[i].dir})
		}
	}
	seg := machine.GetScratch[bool](m, n)
	if n > 0 {
		seg[0] = true
	}
	machine.ScanCols(m, lastB, seg, machine.Forward,
		func(a, b seen) seen { return b })
	machine.PutScratch(m, seg)
	// Circular wrap: queries before the first boundary belong to the
	// globally last boundary's sector (one semigroup/broadcast).
	var wrap seen
	haveWrap := false
	for i := n - 1; i >= 0; i-- {
		if lastB.Occ[i] {
			wrap, haveWrap = lastB.Val[i], true
			break
		}
	}
	m.ChargeLocal(1)
	out := make([][]int, len(queries))
	for i, ok := range entries.Occ {
		if !ok || entries.Val[i].boundary {
			continue
		}
		e := entries.Val[i]
		sb, have := wrap, haveWrap
		if lastB.Occ[i] {
			sb, have = lastB.Val[i], true
		}
		if !have {
			continue
		}
		owners := []int{sb.owner}
		// Query on the boundary ray: it also belongs to the preceding
		// sector, i.e. to vertex owner−1 (the paper's "pair of sectors if
		// −R coincides with an edge-ray").
		if DirEq(e.dir, sb.dir) {
			owners = append(owners, (sb.owner+h-1)%h)
		}
		out[e.qIdx] = owners
	}
	return out
}

// AntipodalPairs returns the antipodal vertex pairs of the CCW convex
// polygon hull, each PE ending with at most four pairs, per Lemma 5.5:
// for each edge, the vertices whose sectors contain the edge's opposite
// ray lie on the parallel disjoint support line.
func AntipodalPairs[T ratfun.Real[T]](m *machine.M, hull []geom.Point[T]) [][2]int {
	h := len(hull)
	if h < 2 {
		return nil
	}
	if h == 2 {
		return [][2]int{{0, 1}}
	}
	if m.Observed() {
		m.SpanBegin("lemma5.5-antipodal", "hull", strconv.Itoa(h))
		defer m.SpanEnd()
	}
	queries := make([]geom.Point[T], h)
	for j := 0; j < h; j++ {
		queries[j] = hull[j].Sub(hull[(j+1)%h]) // −E_j
	}
	owners := sectorOwners(m, hull, queries)
	m.ChargeLocal(1)
	seen := map[[2]int]bool{}
	var pairs [][2]int
	add := func(a, b int) {
		if a == b {
			return
		}
		if a > b {
			a, b = b, a
		}
		if !seen[[2]int{a, b}] {
			seen[[2]int{a, b}] = true
			pairs = append(pairs, [2]int{a, b})
		}
	}
	for j, os := range owners {
		for _, v := range os {
			add(j, v)       // edge tail with the far vertex
			add((j+1)%h, v) // edge head with the far vertex
		}
	}
	return pairs
}

// Diameter returns the squared diameter of the hull and a realising
// antipodal pair (Proposition 5.6): antipodal pairs, a Θ(1) local max per
// PE, then a global semigroup.
func Diameter[T ratfun.Real[T]](m *machine.M, hull []geom.Point[T]) (T, [2]int) {
	if m.Observed() {
		m.SpanBegin("prop5.6-diameter", "hull", strconv.Itoa(len(hull)))
		defer m.SpanEnd()
	}
	pairs := AntipodalPairs(m, hull)
	type cand struct {
		d    T
		pair [2]int
	}
	n := m.Size()
	regs := machine.GetCols[cand](m, n)
	defer machine.PutCols(m, regs)
	m.ChargeLocal(1)
	for i, p := range pairs {
		// ≤ 4 pairs per PE in the Lemma 5.5 layout; the simulator stores
		// them one per PE (machines are sized ≥ 4·n so there is room),
		// which only spreads the same Θ(1) local work.
		c := cand{d: geom.DistSq(hull[p[0]], hull[p[1]]), pair: p}
		at := i % n
		if !regs.Occ[at] || c.d.Cmp(regs.Val[at].d) > 0 {
			regs.Set(at, c)
		}
	}
	seg := machine.GetScratch[bool](m, n)
	if n > 0 {
		seg[0] = true
	}
	machine.SemigroupCols(m, regs, seg, func(a, b cand) cand {
		if a.d.Cmp(b.d) >= 0 {
			return a
		}
		return b
	})
	machine.PutScratch(m, seg)
	if c, ok := regs.First(); ok {
		return c.d, c.pair
	}
	var zero T
	return zero, [2]int{}
}

// FarthestPair solves Corollary 5.7: steady-state (or static) hull, then
// diameter; returns the two point IDs and the squared distance.
func FarthestPair[T ratfun.Real[T]](m *machine.M, pts []geom.Point[T], hullIdx []int) (int, int, T) {
	hull := make([]geom.Point[T], len(hullIdx))
	for i, j := range hullIdx {
		hull[i] = pts[j]
	}
	d2, pair := Diameter(m, hull)
	return pts[hullIdx[pair[0]]].ID, pts[hullIdx[pair[1]]].ID, d2
}

// MinAreaRect implements Theorem 5.8 on the machine: for every hull edge
// e (in parallel), the antipodal vertex gives the support line S_e, the
// sectors containing ±e⊥ give the two perpendicular support vertices, a
// Θ(1) local computation yields area(R_e), and a semigroup takes the
// minimum. Cost: Θ(√n) mesh, O(log² n) hypercube (sort-bounded grouping).
func MinAreaRect[T ratfun.Real[T]](m *machine.M, hull []geom.Point[T]) geom.Rect[T] {
	h := len(hull)
	if h < 3 {
		panic("pgeom: MinAreaRect requires a non-degenerate polygon")
	}
	if m.Observed() {
		m.SpanBegin("thm5.8-min-rect", "hull", strconv.Itoa(h))
		defer m.SpanEnd()
	}
	// Three query directions per edge: opposite ray (Step 1, via
	// Lemma 5.5), and the two perpendicular rays (Steps 2–3).
	queries := make([]geom.Point[T], 0, 3*h)
	for j := 0; j < h; j++ {
		e := hull[(j+1)%h].Sub(hull[j])
		perp := geom.Point[T]{X: e.Y.Neg(), Y: e.X}
		queries = append(queries, e.Neg(), perp, perp.Neg())
	}
	owners := sectorOwners(m, hull, queries)
	type cand struct {
		area T
		edge int
		far  int // antipodal vertex (on S_e)
		p1   int // support vertex in +e⊥
		p2   int // support vertex in −e⊥
	}
	n := m.Size()
	regs := machine.GetCols[cand](m, n)
	defer machine.PutCols(m, regs)
	m.ChargeLocal(1)
	for j := 0; j < h; j++ {
		far := owners[3*j]
		o1 := owners[3*j+1]
		o2 := owners[3*j+2]
		if len(far) == 0 || len(o1) == 0 || len(o2) == 0 {
			continue
		}
		p, q := hull[j], hull[(j+1)%h]
		u := q.Sub(p)
		uu := geom.Dot(u, u)
		height := geom.Cross(u, hull[far[0]].Sub(p))
		prMax := geom.Dot(hull[o1[0]].Sub(p), u)
		prMin := geom.Dot(hull[o2[0]].Sub(p), u)
		// Perpendicular support vertices maximise/minimise projection
		// along e among candidates; when the query hit a boundary both
		// sector vertices are valid — take the extremal one.
		for _, v := range o1[1:] {
			if pr := geom.Dot(hull[v].Sub(p), u); pr.Cmp(prMax) > 0 {
				prMax = pr
			}
		}
		for _, v := range o2[1:] {
			if pr := geom.Dot(hull[v].Sub(p), u); pr.Cmp(prMin) < 0 {
				prMin = pr
			}
		}
		area := prMax.Sub(prMin).Mul(height).Div(uu)
		regs.Set(j, cand{area: area, edge: j, far: far[0], p1: o1[0], p2: o2[0]})
	}
	seg := machine.GetScratch[bool](m, n)
	if n > 0 {
		seg[0] = true
	}
	machine.SemigroupCols(m, regs, seg, func(a, b cand) cand {
		if a.area.Cmp(b.area) <= 0 {
			return a
		}
		return b
	})
	machine.PutScratch(m, seg)
	win, found := regs.First()
	if !found {
		panic("pgeom: MinAreaRect found no candidate")
	}
	// Materialise the winning rectangle's corners (Θ(1) local work).
	p, q := hull[win.edge], hull[(win.edge+1)%h]
	u := q.Sub(p)
	uu := geom.Dot(u, u)
	nrm := geom.Point[T]{X: u.Y.Neg(), Y: u.X}
	height := geom.Cross(u, hull[win.far].Sub(p))
	prMax := geom.Dot(hull[win.p1].Sub(p), u)
	prMin := geom.Dot(hull[win.p2].Sub(p), u)
	at := func(pr, hh T) geom.Point[T] {
		return geom.Point[T]{
			X: p.X.Add(u.X.Mul(pr).Div(uu)).Add(nrm.X.Mul(hh).Div(uu)),
			Y: p.Y.Add(u.Y.Mul(pr).Div(uu)).Add(nrm.Y.Mul(hh).Div(uu)),
		}
	}
	var zero T
	return geom.Rect[T]{
		Corners: [4]geom.Point[T]{at(prMin, zero), at(prMax, zero), at(prMax, height), at(prMin, height)},
		Edge:    win.edge,
		Area:    prMax.Sub(prMin).Mul(height).Div(uu),
	}
}
