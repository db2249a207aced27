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
)

// HullVertexIntervals implements Theorem 4.5: the ordered intervals of
// time during which sys.Points[origin] is an extreme point of the convex
// hull of the planar system. Machine allocation λ(n, 4k)
// (MeshFor/CubeFor with s = 4k+2 is comfortable); time
// Θ(λ^{1/2}(n, 4k)) mesh, Θ(log² n) hypercube.
//
// The algorithm follows the paper's proof exactly:
//
//  1. Each PE j forms the angle function T_j(t) of the vector from P₀ to
//     P_j, represented by its polynomial direction vector (curve.Angle),
//     and splits it into G_j (where T_j ≥ 0, i.e. Δy ≥ 0) and B_j (where
//     T_j < 0) — partial functions with at most k jump
//     discontinuities/transitions each (Lemma 3.3, Figure 5).
//  2. Four envelope constructions (Theorem 3.4) give a₀ = min G,
//     b₀ = max G, c₀ = min B, d₀ = max B.
//  3. Lemma 3.1 passes build the indicators A₀ = [a₀ − d₀ ≥ π] and
//     B₀ = [b₀ − c₀ ≤ π], with the a−d = π events located by the
//     antiparallel-vector test (cross = 0, dot < 0) — Θ(1) polynomial
//     work per window.
//  4. C₀ and D₀ indicate where the G (resp. B) family is empty: the gaps
//     of a₀ (resp. c₀).
//  5. H₀ = max(A₀, B₀, C₀, D₀); P₀ is extreme exactly where H₀ = 1
//     (Lemma 4.4), and a parallel prefix packs those intervals.
func HullVertexIntervals(m *machine.M, sys *motion.System, origin int) ([]Interval, error) {
	if sys.D != 2 {
		return nil, fmt.Errorf("core: hull membership requires planar motion, got d=%d: %w", sys.D, motion.ErrBadSystem)
	}
	n := sys.N()
	if n <= 2 {
		// One or two points: every point is always extreme.
		return []Interval{{Lo: 0, Hi: math.Inf(1)}}, nil
	}
	if m.Observed() {
		m.SpanBegin("thm4.5-hull-membership",
			"n", strconv.Itoa(n), "origin", strconv.Itoa(origin))
		defer m.SpanEnd()
	}
	// Broadcast P₀'s trajectory (Θ(1) rounds).
	N := m.Size()
	fregs := colstore.New[motion.Point](N)
	fregs.Set(origin%N, sys.Points[origin])
	machine.SpreadCols(m, fregs, machine.WholeMachine(N))
	m.ChargeLocal(1)

	// Step 1: G_j and B_j as partial angle curves.
	var gs, bs []pieces.Piecewise
	for j, q := range sys.Points {
		if j == origin {
			continue
		}
		ang := sys.Points[origin].AngleTo(q)
		dy := q.Coord[1].Sub(sys.Points[origin].Coord[1])
		gDom, bDom := signDomains(dy)
		if g := pieces.OnIntervals(ang, j, gDom); len(g) > 0 {
			gs = append(gs, g)
		}
		if b := pieces.OnIntervals(ang, j, bDom); len(b) > 0 {
			bs = append(bs, b)
		}
	}
	// Step 2: the four envelopes (any may be absent if its family is
	// empty, e.g. all points forever above P₀).
	env := func(fs []pieces.Piecewise, kind pieces.Kind) (pieces.Piecewise, error) {
		if len(fs) == 0 {
			return nil, nil
		}
		return penvelope.Envelope(m, fs, kind)
	}
	a0, err := env(gs, pieces.Min)
	if err != nil {
		return nil, fmt.Errorf("core: a₀: %w", err)
	}
	b0, err := env(gs, pieces.Max)
	if err != nil {
		return nil, fmt.Errorf("core: b₀: %w", err)
	}
	c0, err := env(bs, pieces.Min)
	if err != nil {
		return nil, fmt.Errorf("core: c₀: %w", err)
	}
	d0, err := env(bs, pieces.Max)
	if err != nil {
		return nil, fmt.Errorf("core: d₀: %w", err)
	}

	// Step 3: indicators A₀ and B₀.
	A0, err := angleGapIndicator(m, a0, d0, true)
	if err != nil {
		return nil, fmt.Errorf("core: A₀: %w", err)
	}
	B0, err := angleGapIndicator(m, b0, c0, false)
	if err != nil {
		return nil, fmt.Errorf("core: B₀: %w", err)
	}
	// Step 4: C₀ = 1 where the G family is empty, D₀ where B is empty.
	C0 := gapIndicator(m, a0)
	D0 := gapIndicator(m, c0)

	// Step 5: H₀ = max(A₀, B₀, C₀, D₀), then pack the 1-intervals.
	h := A0
	for _, other := range []pieces.Piecewise{B0, C0, D0} {
		if len(other) == 0 {
			continue
		}
		if len(h) == 0 {
			h = other
			continue
		}
		h, err = penvelope.MergeMinMax(m, h, other, pieces.Max)
		if err != nil {
			return nil, fmt.Errorf("core: H₀: %w", err)
		}
	}
	return indicatorIntervals(m, h), nil
}

// signDomains splits [0, ∞) at the roots of dy into the closed intervals
// where dy ≥ 0 (the domain of G) and where dy ≤ 0 with negative interior
// (the domain of B). A identically-zero dy puts the whole ray in G
// (T ∈ {0, π} there, never negative).
func signDomains(dy interface {
	Roots(lo, hi float64) []float64
	Eval(t float64) float64
	IsZero() bool
}) (gDom, bDom [][2]float64) {
	if dy.IsZero() {
		return [][2]float64{{0, math.Inf(1)}}, nil
	}
	cuts := append([]float64{0}, dy.Roots(0, math.Inf(1))...)
	cuts = append(cuts, math.Inf(1))
	for i := 0; i+1 < len(cuts); i++ {
		lo, hi := cuts[i], cuts[i+1]
		if !(lo < hi) {
			continue
		}
		mid := lo + 1
		if !math.IsInf(hi, 1) {
			mid = (lo + hi) / 2
		}
		if dy.Eval(mid) >= 0 {
			gDom = append(gDom, [2]float64{lo, hi})
		} else {
			bDom = append(bDom, [2]float64{lo, hi})
		}
	}
	return gDom, bDom
}

// angleGapIndicator builds, via one Lemma 3.1 pass, the 0/1 indicator of
// the condition f(t) − g(t) ≥ π (ge = true; A₀ with f = a₀, g = d₀) or
// f(t) − g(t) ≤ π (ge = false; B₀ with f = b₀, g = c₀), where f takes
// values in [0, π] and g in [−π, 0), so the difference lies in (0, 2π)
// and the threshold crossings are exactly the antiparallel events of the
// two direction vectors (proof of Theorem 4.5, Step 3).
func angleGapIndicator(m *machine.M, f, g pieces.Piecewise, ge bool) (pieces.Piecewise, error) {
	if len(f) == 0 || len(g) == 0 {
		return nil, nil
	}
	return penvelope.Combine2(m, f, g, angleWindow(ge))
}

// angleWindow builds the Θ(1) window combiner shared by the machine pass
// (penvelope.Combine2) and the serial baseline (pieces.CombineWindows).
func angleWindow(ge bool) func(fw, gw pieces.Piecewise) pieces.Piecewise {
	return func(fw, gw pieces.Piecewise) pieces.Piecewise {
		if len(fw) == 0 || len(gw) == 0 {
			// Only one of the two functions is defined: the condition
			// involves an undefined value, so the indicator is 0 on the
			// defined extent (Lemma 4.4's cases 1–2 need both).
			src := fw
			if len(src) == 0 {
				src = gw
			}
			return pieces.Piecewise{{F: curve.Const(0), ID: 0, Lo: src[0].Lo, Hi: src[0].Hi}}
		}
		fp, gp := fw[0], gw[0]
		lo, hi := math.Max(fp.Lo, gp.Lo), math.Min(fp.Hi, gp.Hi)
		var out pieces.Piecewise
		emit0 := func(a, b float64) {
			if a < b {
				out = append(out, pieces.Piece{F: curve.Const(0), ID: 0, Lo: a, Hi: b})
			}
		}
		// Non-overlapping margins of the window are 0.
		emit0(fp.Lo, math.Min(fp.Hi, lo))
		emit0(gp.Lo, math.Min(gp.Hi, lo))
		if !(lo < hi) {
			return out
		}
		fa := fp.F.(curve.Angle)
		ga := gp.F.(curve.Angle)
		cuts := append([]float64{lo}, fa.AntiparallelTimes(ga, lo, hi)...)
		cuts = append(cuts, hi)
		for i := 0; i+1 < len(cuts); i++ {
			a, b := cuts[i], cuts[i+1]
			if !(a < b) {
				continue
			}
			mid := a + 1
			if !math.IsInf(b, 1) {
				mid = (a + b) / 2
			}
			diff := fa.Eval(mid) - ga.Eval(mid)
			hold := diff >= math.Pi
			if !ge {
				hold = diff <= math.Pi
			}
			v := 0
			if hold {
				v = 1
			}
			out = append(out, pieces.Piece{F: curve.Const(float64(v)), ID: v, Lo: a, Hi: b})
		}
		// Trailing margins after the overlap.
		emit0(math.Max(fp.Lo, hi), fp.Hi)
		emit0(math.Max(gp.Lo, hi), gp.Hi)
		return normalizeWindow(out)
	}
}

// normalizeWindow sorts/merges the ≤ Θ(1) pieces a window emitted (they
// are built in at most three ordered groups; overlapping margins can
// coincide, so duplicates are dropped).
func normalizeWindow(ps pieces.Piecewise) pieces.Piecewise {
	if len(ps) <= 1 {
		return ps
	}
	// Insertion sort by Lo (Θ(1) elements).
	for i := 1; i < len(ps); i++ {
		for j := i; j > 0 && ps[j].Lo < ps[j-1].Lo; j-- {
			ps[j], ps[j-1] = ps[j-1], ps[j]
		}
	}
	out := ps[:1]
	for _, p := range ps[1:] {
		last := &out[len(out)-1]
		if p.Lo < last.Hi {
			if p.Hi > last.Hi && p.ID == last.ID {
				last.Hi = p.Hi
			}
			continue
		}
		out = append(out, p)
	}
	return out
}

// gapIndicator returns the indicator that is 1 exactly where f is
// undefined (the paper's C₀/D₀: the corresponding angle family is
// empty). One shift round plus Θ(1) local work per PE.
func gapIndicator(m *machine.M, f pieces.Piecewise) pieces.Piecewise {
	m.ChargeLocal(1)
	return gapIndicatorPieces(f)
}

// gapIndicatorPieces is the pure construction shared with the serial
// baseline.
func gapIndicatorPieces(f pieces.Piecewise) pieces.Piecewise {
	if len(f) == 0 {
		return pieces.Piecewise{{F: curve.Const(1), ID: 1, Lo: 0, Hi: math.Inf(1)}}
	}
	var out pieces.Piecewise
	for _, g := range f.Gaps() {
		out = append(out, pieces.Piece{F: curve.Const(1), ID: 1, Lo: g[0], Hi: g[1]})
	}
	return out
}
