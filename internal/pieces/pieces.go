// Package pieces implements piecewise-defined functions of time and the
// serial construction of minimum/maximum functions (lower/upper
// envelopes).
//
// A "piece" is exactly the paper's notion (§2.5): a description of a
// function together with a maximal interval on which it realises the
// envelope. Piecewise functions may be partial — defined only on a union
// of intervals — which is what §3's jump discontinuities and transitions
// (Figure 5, Lemma 3.3, Theorem 3.4) require.
//
// The serial algorithms here serve three roles: the reference
// implementation that the parallel machine algorithms (internal/penvelope)
// are validated against, the serial baseline in the spirit of
// [Atallah 1985], and the local Θ(1)-sized sub-steps executed inside
// individual PEs by Lemma 3.1's algorithm.
package pieces

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"dyncg/internal/curve"
)

// Piece is one piece of a piecewise function: F restricted to [Lo, Hi].
// Hi may be +Inf. ID records which input function generated the piece
// (the paper's pieces carry "a description of some f_i"; the ID is i).
type Piece struct {
	F      curve.Curve
	ID     int
	Lo, Hi float64
}

// Len returns the length of the piece's interval (possibly +Inf).
func (p Piece) Len() float64 { return p.Hi - p.Lo }

// Contains reports whether t lies in [Lo, Hi].
func (p Piece) Contains(t float64) bool { return t >= p.Lo && t <= p.Hi }

// interior returns a point in the interior of [lo, hi] suitable for
// sampling which of two non-crossing functions is smaller there.
func interior(lo, hi float64) float64 {
	if math.IsInf(hi, 1) {
		return lo + 1
	}
	return 0.5 * (lo + hi)
}

func (p Piece) String() string {
	hi := "∞"
	if !math.IsInf(p.Hi, 1) {
		hi = fmt.Sprintf("%.6g", p.Hi)
	}
	return fmt.Sprintf("(%v, id=%d, [%.6g, %s])", p.F, p.ID, p.Lo, hi)
}

// Piecewise is an ordered list of pieces with pairwise-disjoint interiors.
// Gaps between consecutive pieces are allowed and mean "undefined there"
// (partial functions, Theorem 3.4). The zero value is the everywhere-
// undefined function.
type Piecewise []Piece

// Total returns the piecewise function equal to c on all of [0, ∞).
func Total(c curve.Curve, id int) Piecewise {
	return Piecewise{{F: c, ID: id, Lo: 0, Hi: math.Inf(1)}}
}

// OnIntervals returns c restricted to the given [lo, hi] intervals, which
// must be sorted and disjoint.
func OnIntervals(c curve.Curve, id int, intervals [][2]float64) Piecewise {
	var pw Piecewise
	for _, iv := range intervals {
		if iv[1] > iv[0] {
			pw = append(pw, Piece{F: c, ID: id, Lo: iv[0], Hi: iv[1]})
		}
	}
	return pw
}

// Validate checks the structural invariants: ordering, nondegenerate
// intervals, disjoint interiors.
func (pw Piecewise) Validate() error {
	for i, p := range pw {
		if !(p.Lo < p.Hi) {
			return fmt.Errorf("piece %d has degenerate interval [%v, %v]", i, p.Lo, p.Hi)
		}
		if p.F == nil {
			return fmt.Errorf("piece %d has nil curve", i)
		}
		if i > 0 && p.Lo < pw[i-1].Hi {
			return fmt.Errorf("piece %d starts at %v before previous ends at %v",
				i, p.Lo, pw[i-1].Hi)
		}
	}
	return nil
}

// find returns the index of the piece whose interval contains t, or -1.
func (pw Piecewise) find(t float64) int {
	i := sort.Search(len(pw), func(i int) bool { return pw[i].Hi >= t })
	if i < len(pw) && pw[i].Contains(t) {
		return i
	}
	return -1
}

// Eval evaluates the piecewise function; ok is false where undefined.
func (pw Piecewise) Eval(t float64) (v float64, ok bool) {
	if i := pw.find(t); i >= 0 {
		return pw[i].F.Eval(t), true
	}
	return 0, false
}

// PieceAt returns the piece containing t, if any.
func (pw Piecewise) PieceAt(t float64) (Piece, bool) {
	if i := pw.find(t); i >= 0 {
		return pw[i], true
	}
	return Piece{}, false
}

// Defined reports whether the function is defined at t.
func (pw Piecewise) Defined(t float64) bool { return pw.find(t) >= 0 }

// Compact merges maximal runs of adjacent pieces that carry the same
// function, implementing Step 6 of Lemma 3.1's algorithm: pieces
// (F, [a,b]) and (F, [b,c]) combine to (F, [a,c]).
func (pw Piecewise) Compact() Piecewise {
	if len(pw) == 0 {
		return pw
	}
	out := make(Piecewise, 0, len(pw))
	for _, p := range pw {
		out = appendCompact(out, 0, p)
	}
	return out
}

// appendCompact appends p to dst, or, when dst[start:] is not empty and
// its last piece abuts p with the same ID and the same function, extends
// that piece to p.Hi instead — Compact's test, in Compact's order.
func appendCompact(dst Piecewise, start int, p Piece) Piecewise {
	if n := len(dst); n > start {
		if cur := &dst[n-1]; p.Lo == cur.Hi && p.ID == cur.ID && curve.Same(p.F, cur.F) {
			cur.Hi = p.Hi
			return dst
		}
	}
	return append(dst, p)
}

// Kind selects the envelope direction.
type Kind int

// Envelope kinds.
const (
	Min Kind = iota // lower envelope, h(t) = min f_i(t)  (Equation 1)
	Max             // upper envelope
)

// Merge computes the pointwise min (or max) of two piecewise functions,
// defined wherever at least one operand is defined — the serial
// counterpart of Lemma 3.1's six-step machine algorithm. Its cost is
// O(m + I) where m is the total piece count and I the number of
// intersections, each piece pair contributing at most s intersections.
func Merge(f, g Piecewise, kind Kind) Piecewise { return AppendMerge(nil, f, g, kind) }

// cutsLen is the capacity of the stack buffer AppendMerge collects its
// breakpoints in: a window's two pieces give four endpoints plus at most
// s intersections. Larger merges fall back to the heap.
const cutsLen = 16

// AppendMerge appends Merge(f, g, kind) to dst and returns the extended
// slice; dst's existing pieces are left alone. A merge of two window
// pieces over Poly or Angle curves of degree ≤ 2 allocates nothing
// beyond dst's growth.
func AppendMerge(dst, f, g Piecewise, kind Kind) Piecewise {
	if len(f) == 0 {
		return append(dst, g...)
	}
	if len(g) == 0 {
		return append(dst, f...)
	}
	var buf [cutsLen]float64
	cuts := breakpoints(buf[:0], f, g)
	start := len(dst)
	for i := 0; i+1 < len(cuts); i++ {
		lo, hi := cuts[i], cuts[i+1]
		if !(lo < hi) {
			continue
		}
		t := interior(lo, hi)
		fi, gi := f.find(t), g.find(t)
		var chosen Piece
		switch {
		case fi < 0 && gi < 0:
			continue
		case fi < 0:
			chosen = g[gi]
		case gi < 0:
			chosen = f[fi]
		default:
			chosen = choose(f[fi], g[gi], t, kind)
		}
		dst = appendCompact(dst, start, Piece{F: chosen.F, ID: chosen.ID, Lo: lo, Hi: hi})
	}
	return dst
}

// choose picks the piece that realises the envelope at sample time t,
// breaking exact ties (identical functions) toward the smaller ID so the
// result is deterministic.
func choose(a, b Piece, t float64, kind Kind) Piece {
	if curve.Same(a.F, b.F) {
		if b.ID < a.ID {
			return b
		}
		return a
	}
	av, bv := a.F.Eval(t), b.F.Eval(t)
	aWins := av <= bv
	if kind == Max {
		aWins = av >= bv
	}
	if aWins {
		return a
	}
	return b
}

// breakpoints returns the sorted, deduplicated set of elementary-interval
// boundaries for merging f and g: all piece endpoints plus all
// intersection times of overlapping piece pairs (the subpiece boundaries
// of Lemma 3.1, Step 4). It collects them in buf's storage while its
// capacity suffices.
func breakpoints(buf []float64, f, g Piecewise) []float64 {
	cuts := buf[:0]
	for _, p := range f {
		cuts = append(cuts, p.Lo, p.Hi)
	}
	for _, p := range g {
		cuts = append(cuts, p.Lo, p.Hi)
	}
	// Two-pointer sweep over overlapping pairs; by Lemma 2.5 the pieces of
	// f and g have at most |f| + |g| nondegenerate intersections, so this
	// walk is linear in the output. Identical curves report no times.
	i, j := 0, 0
	for i < len(f) && j < len(g) {
		lo := math.Max(f[i].Lo, g[j].Lo)
		hi := math.Min(f[i].Hi, g[j].Hi)
		if lo < hi {
			cuts, _ = curve.AppendIntersections(cuts, f[i].F, g[j].F, lo, hi)
		}
		if f[i].Hi < g[j].Hi {
			i++
		} else if g[j].Hi < f[i].Hi {
			j++
		} else {
			i++
			j++
		}
	}
	sort.Float64s(cuts)
	return dedupeCuts(cuts)
}

func dedupeCuts(cuts []float64) []float64 {
	out := cuts[:0]
	for _, c := range cuts {
		// The tolerance is based on the previous cut so that c = +Inf
		// compares against a finite threshold.
		if len(out) == 0 || c-out[len(out)-1] > 1e-12*(1+math.Abs(out[len(out)-1])) {
			out = append(out, c)
		}
	}
	return out
}

// Envelope computes the min (or max) function of the given piecewise
// inputs by balanced divide and conquer — the serial counterpart of
// Theorem 3.2's recursive halving, and the O(λ(n,s) log n) serial
// baseline in the style of [Atallah 1985].
func Envelope(fs []Piecewise, kind Kind) Piecewise {
	switch len(fs) {
	case 0:
		return nil
	case 1:
		return append(Piecewise(nil), fs[0]...)
	}
	mid := len(fs) / 2
	return Merge(Envelope(fs[:mid], kind), Envelope(fs[mid:], kind), kind)
}

// EnvelopeOfCurves computes the envelope of total (everywhere-defined)
// curves; curve i is tagged with ID i. This is Equation (1) of the paper.
func EnvelopeOfCurves(cs []curve.Curve, kind Kind) Piecewise {
	return Envelope(Totals(cs), kind)
}

// Totals returns the one-piece total functions of cs, curve i tagged with
// ID i — Total(cs[i], i) for every i — carved from one backing array.
// Each input's capacity is capped at its one piece, so appending to one
// never writes into the next.
func Totals(cs []curve.Curve) []Piecewise {
	backing := make(Piecewise, len(cs))
	fs := make([]Piecewise, len(cs))
	for i, c := range cs {
		backing[i] = Piece{F: c, ID: i, Lo: 0, Hi: math.Inf(1)}
		fs[i] = backing[i : i+1 : i+1]
	}
	return fs
}

// IDs returns the generating-function IDs of the pieces in order — e.g.
// the sequence R of closest points of Theorem 4.1.
func (pw Piecewise) IDs() []int {
	ids := make([]int, len(pw))
	for i, p := range pw {
		ids[i] = p.ID
	}
	return ids
}

// Gaps returns the maximal intervals of [0, ∞) on which the function is
// undefined.
func (pw Piecewise) Gaps() [][2]float64 {
	var gaps [][2]float64
	prev := 0.0
	for _, p := range pw {
		if p.Lo > prev {
			gaps = append(gaps, [2]float64{prev, p.Lo})
		}
		prev = p.Hi
	}
	if !math.IsInf(prev, 1) {
		gaps = append(gaps, [2]float64{prev, math.Inf(1)})
	}
	return gaps
}

func (pw Piecewise) String() string {
	parts := make([]string, len(pw))
	for i, p := range pw {
		parts[i] = p.String()
	}
	return "[" + strings.Join(parts, " ") + "]"
}
