// Package penvelope implements the paper's parallel construction of the
// minimum (and maximum) function — the central tool of §3:
//
//   - Lemma 3.1: merging the pieces of two piecewise functions stored in
//     disjoint strings into the pieces of their pointwise min, using one
//     merge, parallel prefixes, Θ(1) local root-finding per PE, and a
//     compaction — Θ(√m) on the mesh, Θ(log m) on the hypercube;
//
//   - Theorem 3.2: the recursive halving that builds
//     h(t) = min{f₀(t), …, f_{n−1}(t)} on a machine of λ_M(n,s) (mesh) or
//     λ_H(n,s) (hypercube) PEs in Θ(λ^{1/2}(n,s)) resp. Θ(log² n) time,
//     leaving the pieces ordered one per PE;
//
//   - Theorem 3.4: the same construction for partial functions with
//     bounded jump discontinuities and transitions (Figure 5), used by
//     the convex-hull-membership algorithm of §4.2.
//
// The recursion is realised bottom-up: level ℓ works on aligned blocks of
// 2^ℓ PEs, every block holding the envelope of its functions as a sorted,
// front-packed run of pieces; merging two sibling blocks is Lemma 3.1
// executed simultaneously in every block pair.
package penvelope

import (
	"errors"
	"fmt"
	"math"
	"strconv"

	"dyncg/internal/colstore"
	"dyncg/internal/curve"
	"dyncg/internal/dsseq"
	"dyncg/internal/machine"
	"dyncg/internal/par"
	"dyncg/internal/pieces"
)

// ErrBlockCapacity reports that a merge level emitted more pieces than
// an aligned block can hold one-per-PE. Under the MeshPEs/CubePEs
// allocation (N ≥ 4·λ(n, s)) this never fires for from-scratch
// envelopes; the retained MergeTree deliberately re-merges dirty nodes
// in under-sized scratch blocks and uses this sentinel to retry with a
// doubled block (see mergeNode).
var ErrBlockCapacity = errors.New("penvelope: block capacity exceeded (λ under-allocation)")

// kindName names the envelope kind in trace spans.
func kindName(kind pieces.Kind) string {
	if kind == pieces.Max {
		return "max"
	}
	return "min"
}

// envReg is one PE's register during envelope construction: a piece plus
// the half ("string") it belonged to at the current merge level — the
// paper's f/g tag from Step 1 of Lemma 3.1.
type envReg struct {
	p    pieces.Piece
	side uint8
}

// lastSeen carries, through a parallel prefix, the most recent piece of
// each side — the other-piece field of Lemma 3.1 Step 3.
type lastSeen struct {
	f, g     pieces.Piece
	fOk, gOk bool
}

func mergeSeen(a, b lastSeen) lastSeen {
	out := b
	if !out.fOk {
		out.f, out.fOk = a.f, a.fOk
	}
	if !out.gOk {
		out.g, out.gOk = a.g, a.gOk
	}
	return out
}

// Envelope builds the min/max function of fs on machine m. Each input
// must have Θ(1) pieces (a single total curve, or the ≤ k+1 domain pieces
// of a partial function per Theorem 3.4); inputs are laid out one
// function per machine stride, the paper's input convention (§2.4). The
// result is returned as an ordered Piecewise (pieces end up ordered, one
// per PE, exactly as Theorem 3.2 promises) and the machine's counters
// hold the simulated parallel time.
func Envelope(m *machine.M, fs []pieces.Piecewise, kind pieces.Kind) (pieces.Piecewise, error) {
	return envelope(m, fs, kind, nil)
}

// envelope is the body of Envelope with an optional per-level snapshot
// hook: after every completed merge level, snap receives the block size
// and the register file, whose aligned blocks hold the sorted,
// front-packed envelopes of their function groups. NewMergeTree uses the
// hook to capture every internal node of the recursion tree in one
// bottom-up pass.
func envelope(m *machine.M, fs []pieces.Piecewise, kind pieces.Kind, snap func(block int, regs colstore.File[envReg])) (pieces.Piecewise, error) {
	n := len(fs)
	N := m.Size()
	if n == 0 {
		return nil, nil
	}
	if m.Observed() {
		m.SpanBegin("thm3.2-envelope",
			"funcs", strconv.Itoa(n), "kind", kindName(kind))
		defer m.SpanEnd()
	}
	maxInit := 1
	for _, f := range fs {
		if len(f) > maxInit {
			maxInit = len(f)
		}
	}
	// Spread the functions across the whole machine. The paper stores
	// Θ(1) pieces per PE; this implementation keeps exactly one piece per
	// PE and compensates with a constant-factor PE overallocation (see
	// MeshPEs/CubePEs and DESIGN.md): with N ≥ 4·λ(n,s) every block's
	// piece population, even before Step 6's compaction, fits one-per-PE.
	n2 := dsseq.NextPow2(n)
	stride := N / n2
	if stride < dsseq.NextPow2(maxInit) {
		return nil, fmt.Errorf("penvelope: %d functions with ≤%d pieces need ≥%d PEs, machine has %d: %w",
			n, maxInit, n2*dsseq.NextPow2(maxInit), N, machine.ErrTooFewPEs)
	}
	// Spread the inputs: function i's pieces at PEs i·stride, i·stride+1, …
	// (Step 1 of Theorem 3.2: split the descriptions evenly).
	regs := machine.GetCols[envReg](m, N)
	defer machine.PutCols(m, regs)
	for i, f := range fs {
		for j, p := range f {
			regs.Set(i*stride+j, envReg{p: p})
		}
	}
	// Bottom-up recursive halving (Step 2–3 of Theorem 3.2).
	window := func(fw, gw pieces.Piecewise) pieces.Piecewise {
		return pieces.Merge(fw, gw, kind)
	}
	for block := stride * 2; block <= N; block *= 2 {
		if err := mergeLevel(m, regs, block, window); err != nil {
			return nil, err
		}
		if snap != nil {
			snap(block, regs)
		}
	}
	out := occupiedPieces(regs)
	if err := out.Validate(); err != nil {
		return nil, fmt.Errorf("penvelope: invalid result: %w", err)
	}
	return out, nil
}

// mergeLevel performs Lemma 3.1 simultaneously in every aligned block of
// the given size: each block's two halves hold sorted, front-packed piece
// runs of h₁ and h₂; afterwards the block holds the sorted, front-packed
// pieces of window(h₁, h₂) — the pointwise min for envelope construction,
// or any other Θ(1)-per-window combination (the generalisation the paper
// notes after Lemma 3.1: "the algorithm ... can also be used to construct
// ... any of a variety of operations (e.g., max, sum, product)").
func mergeLevel(m *machine.M, regs colstore.File[envReg], block int, window func(fw, gw pieces.Piecewise) pieces.Piecewise) error {
	if m.Observed() {
		m.SpanBegin("lemma3.1-merge", "block", strconv.Itoa(block))
		defer m.SpanEnd()
	}
	N := regs.Len()
	half := block / 2
	// Step 1: tag sides.
	m.ChargeLocal(1)
	par.ForEach(m.Workers(), N, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			if regs.Occ[i] {
				regs.Val[i].side = uint8((i / half) % 2)
			}
		}
	})
	// Step 2: merge the two runs by interval left endpoint. Ties broken
	// by side then ID for determinism (the paper breaks ties in favour of
	// Right records; any fixed rule works here because empty windows are
	// skipped).
	machine.MergeBlocksCols(m, regs, block, func(a, b envReg) bool {
		if a.p.Lo != b.p.Lo {
			return a.p.Lo < b.p.Lo
		}
		if a.side != b.side {
			return a.side < b.side
		}
		return a.p.ID < b.p.ID
	})
	// Step 3: parallel prefix gives every PE the latest piece of each
	// side starting at or before its own (the other-piece field).
	seg := machine.GetScratch[bool](m, N)
	for i := 0; i < N; i += block {
		seg[i] = true
	}
	seen := machine.GetCols[lastSeen](m, N)
	m.ChargeLocal(1)
	par.ForEach(m.Workers(), N, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			if !regs.Occ[i] {
				continue
			}
			r := regs.Val[i]
			ls := lastSeen{}
			if r.side == 0 {
				ls.f, ls.fOk = r.p, true
			} else {
				ls.g, ls.gOk = r.p, true
			}
			seen.Val[i], seen.Occ[i] = ls, true
		}
	})
	machine.ScanCols(m, seen, seg, machine.Forward, mergeSeen)
	// Each PE also needs the start of the next piece to bound its window.
	next := machine.ShiftWithinCols(m, regs, block, -1)
	// Step 4–5: Θ(1) local work per PE — build the envelope restricted to
	// the window [myLo, nextLo) from the two active pieces, via the same
	// bounded computation a single PE performs in Lemma 3.1 (root
	// isolation on one pair of bounded-degree curves plus sample
	// comparisons on ≤ s+1 subintervals).
	m.ChargeLocal(1)
	emitted := machine.GetScratch[[]pieces.Piece](m, N)
	// The window computation (root isolation on a pair of curves) is pure
	// and writes only emitted[i], so PEs shard freely; maxEmit is an
	// order-independent max reduction.
	maxEmit := par.Reduce(m.Workers(), N, 0, func(lo, hi int) int {
		maxEmit := 0
		for i := lo; i < hi; i++ {
			if !regs.Occ[i] || !seen.Occ[i] {
				continue
			}
			w0 := regs.Val[i].p.Lo
			w1 := math.Inf(1)
			if next.Occ[i] {
				w1 = next.Val[i].p.Lo
			}
			if !(w0 < w1) {
				continue // empty window (tied left endpoints)
			}
			ls := seen.Val[i]
			var fw, gw pieces.Piecewise
			if ls.fOk {
				fw = clip(ls.f, w0, w1)
			}
			if ls.gOk {
				gw = clip(ls.g, w0, w1)
			}
			emitted[i] = window(fw, gw)
			if len(emitted[i]) > maxEmit {
				maxEmit = len(emitted[i])
			}
		}
		return maxEmit
	}, func(a, b int) int {
		if b > a {
			return b
		}
		return a
	})
	// Pack the emitted subpieces: rank by parallel prefix, then maxEmit
	// structured routes (each PE holds Θ(1) subpieces).
	counts := machine.GetCols[int](m, N)
	m.ChargeLocal(1)
	for i := 0; i < N; i++ {
		counts.Val[i], counts.Occ[i] = len(emitted[i]), true
	}
	machine.ScanCols(m, counts, seg, machine.Forward, func(a, b int) int { return a + b })
	out := machine.GetCols[envReg](m, N)
	for i := 0; i < N; i++ {
		if len(emitted[i]) == 0 {
			continue
		}
		base := (i/block)*block + counts.Val[i] - len(emitted[i])
		for j, p := range emitted[i] {
			if base+j >= (i/block+1)*block {
				return fmt.Errorf("%w at level %d", ErrBlockCapacity, block)
			}
			out.Set(base+j, envReg{p: p})
		}
	}
	srcBuf := machine.GetScratch[int](m, N)
	dstBuf := machine.GetScratch[int](m, N)
	for j := 0; j < maxEmit; j++ {
		// Each of the ≤ maxEmit rounds is one structured route.
		src, dst := srcBuf[:0], dstBuf[:0]
		for i := 0; i < N; i++ {
			if j < len(emitted[i]) {
				src = append(src, i)
				dst = append(dst, (i/block)*block+counts.Val[i]-len(emitted[i])+j)
			}
		}
		m.ChargeRoute(src, dst)
	}
	regs.CopyFrom(out)
	// Release this level's scratch before recursing into Step 6. The
	// emitted buffer still holds per-PE subpiece slices (heap values from
	// window); clear it so the parked buffer does not pin them.
	clear(emitted)
	machine.PutScratch(m, dstBuf)
	machine.PutScratch(m, srcBuf)
	machine.PutCols(m, out)
	machine.PutCols(m, counts)
	machine.PutScratch(m, emitted)
	machine.PutCols(m, next)
	machine.PutCols(m, seen)
	machine.PutScratch(m, seg)
	// Step 6: combine adjacent subpieces with the same generating
	// function (runs), using a prefix within runs.
	return combineRuns(m, regs, block)
}

// combineRuns merges maximal runs of adjacent pieces with equal ID whose
// intervals abut, the parallel form of Piecewise.Compact.
func combineRuns(m *machine.M, regs colstore.File[envReg], block int) error {
	if m.Observed() {
		m.SpanBegin("combine-runs", "block", strconv.Itoa(block))
		defer m.SpanEnd()
	}
	N := regs.Len()
	prev := machine.ShiftWithinCols(m, regs, block, +1) // prev[i] = regs[i-1]
	runStart := machine.GetScratch[bool](m, N)
	m.ChargeLocal(1)
	par.ForEach(m.Workers(), N, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			if !regs.Occ[i] {
				runStart[i] = i%block == 0
				continue
			}
			if !prev.Occ[i] {
				runStart[i] = true
				continue
			}
			a, b := prev.Val[i].p, regs.Val[i].p
			runStart[i] = !(a.ID == b.ID && a.Hi == b.Lo)
		}
	})
	machine.PutCols(m, prev)
	// Bring each run's final Hi to its head: a backward flood (nil op)
	// within runs.
	his := machine.GetCols[float64](m, N)
	for i := 0; i < N; i++ {
		if regs.Occ[i] {
			his.Set(i, regs.Val[i].p.Hi)
		}
	}
	machine.ScanCols(m, his, runStart, machine.Backward, nil)
	m.ChargeLocal(1)
	for i := 0; i < N; i++ {
		if !regs.Occ[i] {
			continue
		}
		if runStart[i] {
			regs.Val[i].p.Hi = his.Val[i]
		} else {
			regs.Clear(i)
		}
	}
	machine.PutCols(m, his)
	seg := machine.GetScratch[bool](m, N)
	for i := 0; i < N; i += block {
		seg[i] = true
	}
	machine.CompactCols(m, regs, seg)
	machine.PutScratch(m, seg)
	machine.PutScratch(m, runStart)
	return nil
}

// occupiedPieces returns the occupied registers' pieces in PE order,
// as a non-nil slice.
func occupiedPieces(regs colstore.File[envReg]) pieces.Piecewise {
	out := pieces.Piecewise{}
	for i, ok := range regs.Occ {
		if ok {
			out = append(out, regs.Val[i].p)
		}
	}
	return out
}

// clip restricts a piece to the window [w0, w1), returning at most one
// piece.
func clip(p pieces.Piece, w0, w1 float64) pieces.Piecewise {
	lo := math.Max(p.Lo, w0)
	hi := math.Min(p.Hi, w1)
	if !(lo < hi) {
		return nil
	}
	return pieces.Piecewise{{F: p.F, ID: p.ID, Lo: lo, Hi: hi}}
}

// MeshPEs returns the mesh size (a power of four) this implementation
// uses for an envelope of n functions with at most s pairwise
// intersections: Θ(λ_M(n, s)) PEs, the Theorem 3.2 allocation up to the
// constant factor documented in DESIGN.md (one piece per PE instead of
// Θ(1) pieces per PE).
func MeshPEs(n, s int) int { return dsseq.NextPow4(4 * dsseq.LambdaBound(n, s)) }

// CubePEs is MeshPEs for the hypercube: Θ(λ_H(n, s)) PEs, a power of two.
func CubePEs(n, s int) int { return dsseq.NextPow2(4 * dsseq.LambdaBound(n, s)) }

// EnvelopeOfCurves runs Envelope over total curves, tagging curve i with
// ID i — the direct parallel construction of Equation (1).
func EnvelopeOfCurves(m *machine.M, cs []curve.Curve, kind pieces.Kind) (pieces.Piecewise, error) {
	fs := make([]pieces.Piecewise, len(cs))
	for i, c := range cs {
		fs[i] = pieces.Total(c, i)
	}
	return Envelope(m, fs, kind)
}
