package penvelope

import (
	"fmt"

	"dyncg/internal/machine"
	"dyncg/internal/pieces"
)

// Combine2 applies Lemma 3.1's machine algorithm once to two piecewise
// functions f and g with an arbitrary Θ(1)-per-window combiner — the
// paper's remark that the construction works for "any of a variety of
// operations" on a pair of functions. It is the workhorse of §4: the
// algorithms of Theorems 4.5–4.7 build difference functions and 0/1
// indicator functions (A₀, B₀, W_i, …) exactly this way.
//
// window receives the pieces of f and of g clipped to an elementary
// window (either may be empty) and returns the combined pieces on that
// window. Cost: Θ(√N) mesh / Θ(log N) hypercube (one Lemma 3.1 pass).
func Combine2(m *machine.M, f, g pieces.Piecewise, window func(fw, gw pieces.Piecewise) pieces.Piecewise) (pieces.Piecewise, error) {
	N := m.Size()
	if len(f) > N/2 || len(g) > N/2 {
		return nil, fmt.Errorf("penvelope: Combine2 inputs (%d, %d pieces) exceed machine halves (%d PEs): %w",
			len(f), len(g), N, machine.ErrTooFewPEs)
	}
	regs := machine.GetCols[envReg](m, N)
	defer machine.PutCols(m, regs)
	for j, p := range f {
		regs.Set(j, envReg{p: p})
	}
	for j, p := range g {
		regs.Set(N/2+j, envReg{p: p})
	}
	if err := mergeLevel(m, regs, N, window); err != nil {
		return nil, err
	}
	out := occupiedPieces(regs)
	if err := out.Validate(); err != nil {
		return nil, fmt.Errorf("penvelope: Combine2 produced invalid pieces: %w", err)
	}
	return out, nil
}

// MergeMinMax is Combine2 specialised to the pointwise min/max of two
// piecewise functions (Lemma 3.1 proper).
func MergeMinMax(m *machine.M, f, g pieces.Piecewise, kind pieces.Kind) (pieces.Piecewise, error) {
	return Combine2(m, f, g, func(fw, gw pieces.Piecewise) pieces.Piecewise {
		return pieces.Merge(fw, gw, kind)
	})
}

// MapPieces applies a Θ(1) local transformation to every piece of f
// (each piece may expand into a bounded number of subpieces), then packs
// and recombines adjacent equal runs — one parallel prefix, a constant
// number of routes, and a compaction. Used for per-piece threshold
// indicators such as W_i(t) = [D_i(t) ≤ X_i] in Theorem 4.6.
func MapPieces(m *machine.M, f pieces.Piecewise, fn func(pieces.Piece) []pieces.Piece) (pieces.Piecewise, error) {
	N := m.Size()
	if len(f) > N {
		return nil, fmt.Errorf("penvelope: MapPieces input (%d pieces) exceeds machine (%d PEs): %w", len(f), N, machine.ErrTooFewPEs)
	}
	emitted := machine.GetScratch[[]pieces.Piece](m, len(f))
	defer func() {
		clear(emitted) // drop the subpieces so the parked buffer does not pin them
		machine.PutScratch(m, emitted)
	}()
	m.ChargeLocal(1)
	total := 0
	for i, p := range f {
		emitted[i] = fn(p)
		total += len(emitted[i])
	}
	if total > N {
		return nil, fmt.Errorf("penvelope: MapPieces expansion (%d pieces) exceeds machine (%d PEs): %w", total, N, machine.ErrTooFewPEs)
	}
	// Rank by a whole-machine parallel prefix over the per-PE counts, then
	// pack with one structured route per subpiece index.
	m.ChargeLocal(1)
	var whole machine.ScanShape
	whole.AddBlocks(N, N)
	machine.ChargeScan(m, N, &whole)
	regs := machine.GetCols[envReg](m, N)
	defer machine.PutCols(m, regs)
	maxEmit, at := 0, 0
	for _, sub := range emitted {
		maxEmit = max(maxEmit, len(sub))
		for j, p := range sub {
			regs.Set(at+j, envReg{p: p})
		}
		at += len(sub)
	}
	src := machine.GetScratch[int](m, len(f))
	dst := machine.GetScratch[int](m, len(f))
	for j := 0; j < maxEmit; j++ {
		src, dst = src[:0], dst[:0]
		at := 0
		for i, sub := range emitted {
			if j < len(sub) {
				src = append(src, i)
				dst = append(dst, at+j)
			}
			at += len(sub)
		}
		m.ChargeRoute(src, dst)
	}
	machine.PutScratch(m, dst)
	machine.PutScratch(m, src)
	if err := combineRuns(m, regs, N); err != nil {
		return nil, err
	}
	out := occupiedPieces(regs)
	if err := out.Validate(); err != nil {
		return nil, fmt.Errorf("penvelope: MapPieces produced invalid pieces: %w", err)
	}
	return out, nil
}
