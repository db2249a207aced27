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
//
// The packed-run invariant. Every register file a merge level receives —
// from envelope, Combine2, MapPieces and MergeTree.mergeOnce alike —
// holds, in each half of each block, a front-packed run of pieces sorted
// by Lo (a valid Piecewise), and every other register is empty and
// zero; every level leaves its blocks in that state. The machine is
// over-allocated (N ≥ 4·λ(n, s), see MeshPEs/CubePEs), so most registers
// are empty, and a dense level would spend almost all of its host work
// skipping them. mergeLevel and combineRuns therefore read each block's
// runs directly and do host work per piece — O(pieces + N/block) per
// level — while charging the machine every round of the dense
// algorithm through machine's charge-only entry points (ChargeMergeBlocks,
// ChargeScan, ChargeShift, ChargeCompact, ChargeRoute), so Stats, the
// observer stream and the fault-injector consultations are those of the
// round-by-round algorithm, which survives as the test oracle in
// mergeref_test.go.
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
	window := func(dst, fw, gw pieces.Piecewise) pieces.Piecewise {
		return pieces.AppendMerge(dst, fw, gw, kind)
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

// regLess is the Step 2 merge order: interval left endpoint, ties broken
// by side then ID for determinism (the paper breaks ties in favour of
// Right records; any fixed rule works here because empty windows are
// skipped). Within one side the left endpoints of a valid run strictly
// increase, so on valid runs this is a strict total order and any
// correct merge of the two runs yields the same sequence.
func regLess(a, b envReg) bool {
	if a.p.Lo != b.p.Lo {
		return a.p.Lo < b.p.Lo
	}
	if a.side != b.side {
		return a.side < b.side
	}
	return a.p.ID < b.p.ID
}

// mergeItem is one piece of a block's merged sequence at a Lemma 3.1
// level — one PE's state between Steps 2 and 5.
type mergeItem struct {
	p    pieces.Piece
	from int // the PE that held the piece before the level
	pe   int // the PE the Step 2 merge moves it to
	// f and g index (in the level's item list) the latest piece of each
	// side at or before this one within the block — the other-piece
	// field of Step 3 — or are −1 before the side's first piece.
	f, g int
	w1   float64 // the window end: the next piece's Lo, or +Inf
	// The window's emitted subpieces (Steps 4–5) are emitted[out :
	// out+nOut] of the level's piece buffer.
	out, nOut int
	at        int // the PE its first subpiece is packed to
}

// runLen returns the length of the front-packed run in occ[lo:hi]: the
// occupied registers up to the first empty one.
func runLen(occ []bool, lo, hi int) int {
	k := 0
	for lo+k < hi && occ[lo+k] {
		k++
	}
	return k
}

// mergeLevel performs Lemma 3.1 simultaneously in every aligned block of
// the given size: each block's two halves hold sorted, front-packed piece
// runs of h₁ and h₂; afterwards the block holds the sorted, front-packed
// pieces of window(h₁, h₂) — the pointwise min for envelope construction,
// or any other Θ(1)-per-window combination (the generalisation the paper
// notes after Lemma 3.1: "the algorithm ... can also be used to construct
// ... any of a variety of operations (e.g., max, sum, product)").
//
// The windows append to one level-wide piece buffer from m's arena and
// read their clipped pieces from two arena registers that the next
// window overwrites (the pieces.Window contract), so a level allocates
// nothing once the arena is warm and the window combiner allocates
// nothing itself.
//
// The machine is charged every round of the six steps — a bitonic
// merge, the other-piece prefix, the next-piece shift, the rank prefix
// and the packing routes — through machine's charge-only entry points,
// while the host touches only the occupied registers: it merges the two
// runs of each block directly, so its work is O(pieces + N/block) per
// level instead of O(N log block). The packed-run invariant (package
// doc) is what makes the two agree; the round-by-round form is the test
// oracle in mergeref_test.go.
func mergeLevel(m *machine.M, regs colstore.File[envReg], block int, window pieces.Window) error {
	if m.Observed() {
		m.SpanBegin("lemma3.1-merge", "block", strconv.Itoa(block))
		defer m.SpanEnd()
	}
	N := regs.Len()
	half := block / 2
	// Step 1: tag sides. On the host a piece's side is the half its run
	// is read from.
	m.ChargeLocal(1)
	// Step 2: merge the two runs of every block by regLess. Step 3's
	// last-seen prefix and next-piece shift ride along: the merge walks
	// each block's pieces in their final order.
	total := 0
	for s := 0; s < N; s += block {
		mid, e := min(s+half, N), min(s+block, N)
		total += runLen(regs.Occ, s, mid) + runLen(regs.Occ, mid, e)
	}
	items := machine.GetScratch[mergeItem](m, total)
	defer func() {
		clear(items) // drop the pieces so the parked buffer does not pin their curves
		machine.PutScratch(m, items)
	}()
	nextMsgs, q := 0, 0
	for s := 0; s < N; s += block {
		mid, e := min(s+half, N), min(s+block, N)
		kf, kg := runLen(regs.Occ, s, mid), runLen(regs.Occ, mid, e)
		i, j := s, mid
		f, g := -1, -1
		for k := 0; k < kf+kg; k++ {
			it := &items[q+k]
			if j == mid+kg || i < s+kf && !regLess(envReg{p: regs.Val[j].p, side: 1}, envReg{p: regs.Val[i].p}) {
				it.p, it.from = regs.Val[i].p, i
				f = q + k
				i++
			} else {
				it.p, it.from = regs.Val[j].p, j
				g = q + k
				j++
			}
			it.pe, it.f, it.g = s+k, f, g
			it.w1 = math.Inf(1)
			if k > 0 {
				items[q+k-1].w1 = it.p.Lo
			}
		}
		q += kf + kg
		nextMsgs += max(kf+kg-1, 0)
	}
	machine.ChargeMergeBlocks(m, N, block)
	var blocks machine.ScanShape
	blocks.AddBlocks(N, block)
	m.ChargeLocal(1)
	machine.ChargeScan(m, N, &blocks)
	machine.ChargeShift(m, -1, nextMsgs)
	// Step 4–5: Θ(1) local work per PE — build the envelope restricted to
	// the window [myLo, nextLo) from the two active pieces, via the same
	// bounded computation a single PE performs in Lemma 3.1 (root
	// isolation on one pair of bounded-degree curves plus sample
	// comparisons on ≤ s+1 subintervals).
	m.ChargeLocal(1)
	maxEmit := 0
	clipped := machine.GetScratch[pieces.Piece](m, 2)
	// Most windows emit one or two subpieces; append grows the buffer
	// past this, and the grown buffer is what goes back to the arena.
	emitted := machine.GetScratch[pieces.Piece](m, 2*total)[:0]
	defer func() {
		clear(emitted) // drop the subpieces so the parked buffers do not pin them
		clear(clipped)
		machine.PutScratch(m, emitted)
		machine.PutScratch(m, clipped)
	}()
	for q := range items {
		it := &items[q]
		w0, w1 := it.p.Lo, it.w1
		if !(w0 < w1) {
			continue // empty window (tied left endpoints)
		}
		var fw, gw pieces.Piecewise
		if it.f >= 0 {
			fw = pieces.Clip(clipped[0:0:1], items[it.f].p, w0, w1)
		}
		if it.g >= 0 {
			gw = pieces.Clip(clipped[1:1:2], items[it.g].p, w0, w1)
		}
		it.out = len(emitted)
		emitted = window(emitted, fw, gw)
		it.nOut = len(emitted) - it.out
		maxEmit = max(maxEmit, it.nOut)
	}
	// Pack the emitted subpieces: rank by parallel prefix, then maxEmit
	// structured routes (each PE holds Θ(1) subpieces).
	m.ChargeLocal(1)
	machine.ChargeScan(m, N, &blocks)
	for q := 0; q < total; {
		s := items[q].pe - items[q].pe%block
		at := s
		for ; q < total && items[q].pe < s+block; q++ {
			items[q].at = at
			at += items[q].nOut
		}
		if at > s+block {
			return fmt.Errorf("%w at level %d", ErrBlockCapacity, block)
		}
	}
	src := machine.GetScratch[int](m, total)
	dst := machine.GetScratch[int](m, total)
	for j := 0; j < maxEmit; j++ {
		// Each of the ≤ maxEmit rounds is one structured route.
		src, dst = src[:0], dst[:0]
		for q := range items {
			if j < items[q].nOut {
				src = append(src, items[q].pe)
				dst = append(dst, items[q].at+j)
			}
		}
		m.ChargeRoute(src, dst)
	}
	machine.PutScratch(m, dst)
	machine.PutScratch(m, src)
	for q := range items {
		regs.Clear(items[q].from)
	}
	for q := range items {
		it := &items[q]
		for j, p := range emitted[it.out : it.out+it.nOut] {
			regs.Set(it.at+j, envReg{p: p})
		}
	}
	// Step 6: combine adjacent subpieces with the same generating
	// function (runs), using a prefix within runs.
	return combineRuns(m, regs, block)
}

// combineRuns merges maximal runs of adjacent pieces with equal ID whose
// intervals abut, the parallel form of Piecewise.Compact: each run head
// learns its run's last Hi by a backward flood within runs, the other
// pieces drop out, and a compaction re-packs every block. The host walks
// each block's front-packed run once and charges those rounds in closed
// form: the flood's segments run from each run head to the next, the
// last run reaching the block end (an empty block is one segment).
func combineRuns(m *machine.M, regs colstore.File[envReg], block int) error {
	if m.Observed() {
		m.SpanBegin("combine-runs", "block", strconv.Itoa(block))
		defer m.SpanEnd()
	}
	N := regs.Len()
	// prev[i] = regs[i−1] within the block: one shift round, carrying a
	// message from every piece but a full block's last.
	prevMsgs, total := 0, 0
	for s := 0; s < N; s += block {
		e := min(s+block, N)
		k := runLen(regs.Occ, s, e)
		total += k
		prevMsgs += k
		if k == e-s {
			prevMsgs--
		}
	}
	var runs machine.ScanShape
	src := machine.GetScratch[int](m, total)[:0]
	dst := machine.GetScratch[int](m, total)[:0]
	for s := 0; s < N; s += block {
		e := min(s+block, N)
		k := runLen(regs.Occ, s, e)
		if k == 0 {
			runs.Add(e - s)
			continue
		}
		head, r := s, s
		for i := s + 1; i <= s+k; i++ {
			if i < s+k {
				a, b := regs.Val[i-1].p, regs.Val[i].p
				if a.ID == b.ID && a.Hi == b.Lo {
					continue
				}
				runs.Add(i - head)
			} else {
				runs.Add(e - head)
			}
			// The run [head, i) collapses onto its head, packed to r.
			v := regs.Val[head]
			v.p.Hi = regs.Val[i-1].p.Hi
			src = append(src, head)
			dst = append(dst, r)
			regs.Val[r] = v
			r++
			head = i
		}
		for i := r; i < s+k; i++ {
			regs.Clear(i)
		}
	}
	machine.ChargeShift(m, +1, prevMsgs)
	m.ChargeLocal(1) // mark run heads
	machine.ChargeScan(m, N, &runs)
	m.ChargeLocal(1) // heads take the run's Hi, the rest drop out
	var blocks machine.ScanShape
	blocks.AddBlocks(N, block)
	machine.ChargeCompact(m, N, &blocks, src, dst)
	machine.PutScratch(m, dst)
	machine.PutScratch(m, src)
	return nil
}

// occupiedPieces returns the pieces of a file that is one front-packed
// run from PE 0 — every file after its last merge level — as a non-nil
// slice.
func occupiedPieces(regs colstore.File[envReg]) pieces.Piecewise {
	out := make(pieces.Piecewise, runLen(regs.Occ, 0, regs.Len()))
	for i := range out {
		out[i] = regs.Val[i].p
	}
	return out
}

// MeshPEs returns the mesh size (a power of four) this implementation
// uses for an envelope of n functions with at most s pairwise
// intersections: Θ(λ_M(n, s)) PEs, the Theorem 3.2 allocation up to the
// constant factor documented in DESIGN.md (one piece per PE instead of
// Θ(1) pieces per PE).
func MeshPEs(n, s int) int { return dsseq.NextPow4(4 * dsseq.LambdaBound(n, s)) }

// CubePEs is MeshPEs for the hypercube: Θ(λ_H(n, s)) PEs, a power of two.
func CubePEs(n, s int) int { return dsseq.NextPow2(4 * dsseq.LambdaBound(n, s)) }

// PEs is the envelope allocation for a topology family: MeshPEs for
// "mesh", CubePEs for every other family (hypercube, CCC,
// shuffle-exchange).
func PEs(topo string, n, s int) int {
	if topo == "mesh" {
		return MeshPEs(n, s)
	}
	return CubePEs(n, s)
}

// EnvelopeOfCurves runs Envelope over total curves, tagging curve i with
// ID i — the direct parallel construction of Equation (1).
func EnvelopeOfCurves(m *machine.M, cs []curve.Curve, kind pieces.Kind) (pieces.Piecewise, error) {
	return Envelope(m, pieces.Totals(cs), kind)
}
