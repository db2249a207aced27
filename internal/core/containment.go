package core

import (
	"fmt"
	"math"
	"strconv"

	"dyncg/internal/colstore"
	"dyncg/internal/curve"
	"dyncg/internal/machine"
	"dyncg/internal/motion"
	"dyncg/internal/penvelope"
	"dyncg/internal/pieces"
	"dyncg/internal/poly"
)

// pairID encodes the (coordinate, max-piece, min-piece) origin of a
// difference piece. IDs drive the run-compaction step of Lemma 3.1
// (equal ID ⇒ same function), so they must be unique across the
// coordinate span functions that later get merged together.
func pairID(coord, a, b int) int {
	return ((coord+1)*1_000_003+a)*1_000_003 + b
}

// spanFunctions builds the per-coordinate span functions
// D_i(t) = M_i(t) − m_i(t) of Theorem 4.6 Steps 1–2: two envelope
// constructions (Theorem 3.2) and one Lemma 3.1 pass computing the
// difference. Each D_i has at most 2λ(n, k) pieces (Lemma 2.5).
func spanFunctions(m *machine.M, sys *motion.System) ([]pieces.Piecewise, error) {
	out := make([]pieces.Piecewise, sys.D)
	for i := 0; i < sys.D; i++ {
		cs := sys.CoordCurves(i)
		lo, err := penvelope.EnvelopeOfCurves(m, cs, pieces.Min)
		if err != nil {
			return nil, fmt.Errorf("core: m_%d: %w", i, err)
		}
		hi, err := penvelope.EnvelopeOfCurves(m, cs, pieces.Max)
		if err != nil {
			return nil, fmt.Errorf("core: M_%d: %w", i, err)
		}
		out[i], err = SpanFromEnvelopes(m, hi, lo, i)
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// SpanFromEnvelopes derives one coordinate's span function
// D_i(t) = M_i(t) − m_i(t) from its already-built max and min coordinate
// envelopes — one Lemma 3.1 pass (Theorem 4.6 Step 2). It is the shared
// derivation layer between the one-shot algorithms here (which build hi
// and lo from scratch) and the batch-dynamic session engine of
// internal/session (which rebuilds them from its cached leaves).
func SpanFromEnvelopes(m *machine.M, hi, lo pieces.Piecewise, coord int) (pieces.Piecewise, error) {
	diff, err := penvelope.Combine2(m, hi, lo, windowDiffFor(coord))
	if err != nil {
		return nil, fmt.Errorf("core: D_%d: %w", coord, err)
	}
	return diff, nil
}

// windowDiffFor returns the window combiner emitting the difference
// f − g of the two active polynomial pieces on their overlap (Θ(1) local
// work per window), tagged with the coordinate for unique run IDs.
func windowDiffFor(coord int) pieces.Window {
	return func(dst, fw, gw pieces.Piecewise) pieces.Piecewise {
		if len(fw) == 0 || len(gw) == 0 {
			return dst
		}
		f, g := fw[0], gw[0]
		lo, hi := math.Max(f.Lo, g.Lo), math.Min(f.Hi, g.Hi)
		if !(lo < hi) {
			return dst
		}
		fp := f.F.(curve.Poly).P
		gp := g.F.(curve.Poly).P
		return append(dst, pieces.Piece{
			F:  curve.NewPoly(fp.Sub(gp)),
			ID: pairID(coord, f.ID, g.ID),
			Lo: lo,
			Hi: hi,
		})
	}
}

// thresholdIndicator returns the MapPieces transform for
// W(t) = [piece(t) ≤ x]: split the piece at the roots of p − x and emit
// 0/1 constant pieces (IDs equal the indicator value so runs compact).
func thresholdIndicator(x float64) func(pieces.Piece) []pieces.Piece {
	return func(p pieces.Piece) []pieces.Piece {
		pp := p.F.(curve.Poly).P.Sub(poly.Constant(x))
		cuts := append([]float64{p.Lo}, pp.Roots(p.Lo, p.Hi)...)
		cuts = append(cuts, p.Hi)
		var out []pieces.Piece
		for i := 0; i+1 < len(cuts); i++ {
			lo, hi := cuts[i], cuts[i+1]
			if !(lo < hi) {
				continue
			}
			mid := lo + 1
			if !math.IsInf(hi, 1) {
				mid = (lo + hi) / 2
			}
			v := 0
			if pp.Eval(mid) <= 0 {
				v = 1
			}
			out = append(out, pieces.Piece{F: curve.Const(float64(v)), ID: v, Lo: lo, Hi: hi})
		}
		return out
	}
}

// indicatorIntervals extracts the maximal intervals on which a 0/1
// indicator piecewise equals 1 (the paper's final parallel-prefix pack).
func indicatorIntervals(m *machine.M, w pieces.Piecewise) []Interval {
	m.ChargeLocal(1)
	var out []Interval
	for _, p := range w {
		if p.ID == 1 {
			out = append(out, Interval{Lo: p.Lo, Hi: p.Hi})
		}
	}
	return mergeAbutting(out)
}

// ContainmentIntervals implements Theorem 4.6: the ordered list J of time
// intervals during which the system fits inside an iso-oriented
// hyper-rectangle with side lengths dims. Machine allocation λ(n, k)
// (penvelope.MeshPEs/CubePEs with s = max(k, 1)); time Θ(λ^{1/2}(n,k)) mesh,
// Θ(log² n) hypercube.
func ContainmentIntervals(m *machine.M, sys *motion.System, dims []float64) ([]Interval, error) {
	if len(dims) != sys.D {
		return nil, fmt.Errorf("core: %d dims for %d-dimensional system: %w", len(dims), sys.D, motion.ErrBadSystem)
	}
	if m.Observed() {
		m.SpanBegin("thm4.6-containment",
			"n", strconv.Itoa(sys.N()), "d", strconv.Itoa(sys.D))
		defer m.SpanEnd()
	}
	spans, err := spanFunctions(m, sys)
	if err != nil {
		return nil, err
	}
	return ContainmentFromSpans(m, spans, dims)
}

// ContainmentFromSpans runs Theorem 4.6 Steps 3–5 on already-built span
// functions: threshold each D_i into the indicator W_i(t) = [D_i(t) ≤
// X_i], intersect via Θ(d) Lemma 3.1 passes, and pack the C(t) = 1
// intervals.
func ContainmentFromSpans(m *machine.M, spans []pieces.Piecewise, dims []float64) ([]Interval, error) {
	if len(dims) != len(spans) {
		return nil, fmt.Errorf("core: %d dims for %d span functions: %w", len(dims), len(spans), motion.ErrBadSystem)
	}
	// Step 3: per-coordinate indicators W_i(t) = [D_i(t) ≤ X_i].
	var c pieces.Piecewise
	for i, di := range spans {
		wi, err := penvelope.MapPieces(m, di, thresholdIndicator(dims[i]))
		if err != nil {
			return nil, fmt.Errorf("core: W_%d: %w", i, err)
		}
		if c == nil {
			c = wi
			continue
		}
		// Step 4: C = min(W_1, …, W_d) via Θ(d) = Θ(1) Lemma 3.1 passes.
		c, err = penvelope.MergeMinMax(m, c, wi, pieces.Min)
		if err != nil {
			return nil, fmt.Errorf("core: C after W_%d: %w", i, err)
		}
	}
	// Step 5: pack the intervals with C(t) = 1.
	return indicatorIntervals(m, c), nil
}

// SmallestHypercubeEdge implements Theorem 4.7: the function D(t) whose
// value is the edge length of the smallest iso-oriented hypercube
// containing the system — D(t) = max_i D_i(t), Θ(1) further Lemma 3.1
// passes after Theorem 4.6's Step 1–2.
func SmallestHypercubeEdge(m *machine.M, sys *motion.System) (pieces.Piecewise, error) {
	if m.Observed() {
		m.SpanBegin("thm4.7-cube-edge",
			"n", strconv.Itoa(sys.N()), "d", strconv.Itoa(sys.D))
		defer m.SpanEnd()
	}
	spans, err := spanFunctions(m, sys)
	if err != nil {
		return nil, err
	}
	return EdgeFromSpans(m, spans)
}

// EdgeFromSpans derives the cube-edge function D(t) = max_i D_i(t) from
// already-built span functions — Θ(d) Lemma 3.1 passes (Theorem 4.7's
// final step).
func EdgeFromSpans(m *machine.M, spans []pieces.Piecewise) (pieces.Piecewise, error) {
	if len(spans) == 0 {
		return nil, fmt.Errorf("core: no span functions: %w", motion.ErrBadSystem)
	}
	d := spans[0]
	var err error
	for _, di := range spans[1:] {
		d, err = penvelope.MergeMinMax(m, d, di, pieces.Max)
		if err != nil {
			return nil, err
		}
	}
	return d, nil
}

// SmallestEverHypercube implements Corollary 4.8: D_min = min_{t≥0} D(t)
// and a time attaining it — each PE minimises its Θ(1) pieces locally
// (endpoint and critical-point evaluations of a bounded-degree
// polynomial), then one semigroup.
func SmallestEverHypercube(m *machine.M, sys *motion.System) (dmin, tmin float64, err error) {
	if m.Observed() {
		m.SpanBegin("cor4.8-smallest-cube", "n", strconv.Itoa(sys.N()))
		defer m.SpanEnd()
	}
	d, err := SmallestHypercubeEdge(m, sys)
	if err != nil {
		return 0, 0, err
	}
	return MinimizeEdge(m, d)
}

// MinimizeEdge minimises a cube-edge function over all t ≥ 0
// (Corollary 4.8's final step): each PE minimises its Θ(1) pieces
// locally, then one semigroup selects the global minimum and a time
// attaining it.
func MinimizeEdge(m *machine.M, d pieces.Piecewise) (dmin, tmin float64, err error) {
	type cand struct{ v, t float64 }
	n := m.Size()
	regs := colstore.New[cand](n)
	m.ChargeLocal(1)
	for i, p := range d {
		v, t := minimizePiece(p)
		regs.Set(i%n, cand{v: v, t: t})
	}
	machine.SemigroupCols(m, regs, machine.WholeMachine(n), func(a, b cand) cand {
		if a.v <= b.v {
			return a
		}
		return b
	})
	if c, ok := regs.First(); ok {
		return c.v, c.t, nil
	}
	return 0, 0, fmt.Errorf("core: empty span function")
}

// minimizePiece minimises a polynomial piece over its interval: check the
// endpoints and interior critical points (Θ(1) for bounded degree).
func minimizePiece(p pieces.Piece) (v, t float64) {
	pp := p.F.(curve.Poly).P
	bestT := p.Lo
	bestV := pp.Eval(p.Lo)
	try := func(t float64) {
		if val := pp.Eval(t); val < bestV {
			bestV, bestT = val, t
		}
	}
	if math.IsInf(p.Hi, 1) {
		// Behaviour at infinity: if the polynomial decreases without
		// bound this would be −∞; spans are nonnegative so the limit is
		// finite or +∞ — probe a large representative time.
		try(p.Lo + 1e6)
	} else {
		try(p.Hi)
	}
	hi := p.Hi
	if math.IsInf(hi, 1) {
		hi = p.Lo + 1e6
	}
	for _, r := range pp.Derivative().Roots(p.Lo, hi) {
		try(r)
	}
	return bestV, bestT
}
