package pgeom

import (
	"strconv"

	"dyncg/internal/colstore"
	"dyncg/internal/geom"
	"dyncg/internal/machine"
	"dyncg/internal/par"
	"dyncg/internal/ratfun"
)

// pairCand is a candidate closest pair held in a PE register.
type pairCand[T ratfun.Real[T]] struct {
	a, b int
	d    T
}

// ClosestPair finds a closest pair of pts on the machine by sort-bounded
// divide and conquer — the static algorithm behind Proposition 5.3
// (standing in for [Miller and Stout 1989a] / [Sanz and Cypher 1987], see
// DESIGN.md). It is generic over the ordered field: at F64 it solves the
// static problem, at RatFun the steady-state problem, per Lemma 5.1.
//
// Structure: one global sort by x assigns x-partitioned aligned blocks;
// bottom-up, a second register file is kept y-sorted per block with one
// bitonic merge per level (the classic D&C invariant), the strip around
// each block's x-split is compacted, and each strip point is compared
// with its ≤ 7 successors using constant shift rounds. By induction every
// block ends each level knowing its exact closest pair, so the strip
// argument applies. Total cost Θ(sort): Θ(√n) mesh, Θ(log² n) hypercube.
func ClosestPair[T ratfun.Real[T]](m *machine.M, pts []geom.Point[T]) (a, b int, d2 T) {
	if len(pts) < 2 {
		panic("pgeom: ClosestPair needs at least two points")
	}
	if m.Observed() {
		m.SpanBegin("closest-pair", "n", strconv.Itoa(len(pts)))
		defer m.SpanEnd()
	}
	n := m.Size()
	lessX := func(x, y geom.Point[T]) bool {
		if c := x.X.Cmp(y.X); c != 0 {
			return c < 0
		}
		if c := x.Y.Cmp(y.Y); c != 0 {
			return c < 0
		}
		return x.ID < y.ID
	}
	lessY := func(x, y geom.Point[T]) bool {
		if c := x.Y.Cmp(y.Y); c != 0 {
			return c < 0
		}
		if c := x.X.Cmp(y.X); c != 0 {
			return c < 0
		}
		return x.ID < y.ID
	}
	// Points with IDs = indices into pts.
	tagged := make([]geom.Point[T], len(pts))
	for i, p := range pts {
		p.ID = i
		tagged[i] = p
	}
	byX := colstore.Scatter(n, tagged)
	machine.SortCols(m, byX, lessX)
	byY := machine.GetCols[geom.Point[T]](m, n)
	defer machine.PutCols(m, byY)
	byY.CopyFrom(byX) // blocks of size 1 are trivially y-sorted
	best := machine.GetCols[pairCand[T]](m, n)
	defer machine.PutCols(m, best)

	minPair := func(x, y pairCand[T]) pairCand[T] {
		if x.d.Cmp(y.d) <= 0 {
			return x
		}
		return y
	}

	// Per-level scratch: one set of buffers checked out for the whole
	// divide-and-conquer, refilled each level.
	seg := machine.GetScratch[bool](m, n)
	defer machine.PutScratch(m, seg)
	half := machine.GetScratch[bool](m, n)
	defer machine.PutScratch(m, half)
	xs := machine.GetCols[T](m, n)
	defer machine.PutCols(m, xs)
	split := machine.GetCols[T](m, n)
	defer machine.PutCols(m, split)
	delta := machine.GetCols[pairCand[T]](m, n)
	defer machine.PutCols(m, delta)
	strip := machine.GetCols[geom.Point[T]](m, n)
	defer machine.PutCols(m, strip)

	for block := 2; block <= n; block *= 2 {
		clear(seg)
		clear(half)
		for i := 0; i < n; i += block {
			seg[i] = true
		}
		for i := 0; i < n; i += block / 2 {
			half[i] = true
		}

		// Maintain the y-sorted invariant.
		machine.MergeBlocksCols(m, byY, block, lessY)

		// Split abscissa: max X over each left half-block, spread right.
		xs.Reset()
		m.ChargeLocal(1)
		par.ForEach(m.Workers(), n, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				if byX.Occ[i] {
					xs.Set(i, byX.Val[i].X)
				}
			}
		})
		machine.SemigroupCols(m, xs, half, func(p, q T) T {
			if p.Cmp(q) >= 0 {
				return p
			}
			return q
		})
		split.Reset()
		m.ChargeLocal(1)
		par.ForEach(m.Workers(), n, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				if xs.Occ[i] && (i/(block/2))%2 == 0 {
					split.Set(i, xs.Val[i])
				}
			}
		})
		machine.SpreadCols(m, split, seg)

		// Block δ so far (exact within each half, by induction).
		delta.CopyFrom(best)
		machine.SemigroupCols(m, delta, seg, minPair)

		// Strip membership and compaction.
		strip.Reset()
		m.ChargeLocal(1)
		par.ForEach(m.Workers(), n, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				if !byY.Occ[i] || !split.Occ[i] {
					continue
				}
				p := byY.Val[i]
				dx := p.X.Sub(split.Val[i])
				if !delta.Occ[i] || dx.Mul(dx).Cmp(delta.Val[i].d) < 0 {
					strip.Set(i, p)
				}
			}
		})
		machine.CompactCols(m, strip, seg)

		// Compare each strip point with its ≤ 7 successors. Each shift
		// draws a fresh arena buffer; the previous one is released as
		// soon as the next supersedes it (strip itself stays checked out
		// for the whole level).
		cur := strip
		for k := 0; k < 7; k++ {
			next := machine.ShiftWithinCols(m, cur, block, -1)
			if k > 0 {
				machine.PutCols(m, cur)
			}
			cur = next
			m.ChargeLocal(1)
			cur := cur
			par.ForEach(m.Workers(), n, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					if !strip.Occ[i] || !cur.Occ[i] {
						continue
					}
					d := geom.DistSq(strip.Val[i], cur.Val[i])
					cand := pairCand[T]{a: strip.Val[i].ID, b: cur.Val[i].ID, d: d}
					if !best.Occ[i] || d.Cmp(best.Val[i].d) < 0 {
						best.Set(i, cand)
					}
				}
			})
		}
		machine.PutCols(m, cur)
	}
	clear(seg)
	if n > 0 {
		seg[0] = true
	}
	machine.SemigroupCols(m, best, seg, minPair)
	if c, ok := best.First(); ok {
		return c.a, c.b, c.d
	}
	panic("pgeom: ClosestPair found no candidate")
}
