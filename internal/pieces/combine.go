package pieces

import (
	"math"
	"sort"
)

// Window is a Θ(1)-per-window combiner of Lemma 3.1's generalised pass
// (the paper's "any of a variety of operations", e.g. max, sum,
// product). It receives the pieces of f and of g clipped to one
// elementary window — at most one each, either may be empty — appends the
// combined pieces on that window to dst, and returns the extended slice.
// It must leave dst's existing pieces alone, and fw and gw are valid only
// during the call: callers reuse their storage for the next window.
type Window func(dst, fw, gw Piecewise) Piecewise

// CombineWindows is the serial counterpart of the machine algorithm's
// generalised Lemma 3.1 pass (penvelope.Combine2): it slices the time
// axis into the elementary windows delimited by the left endpoints of
// the pieces of f and g, hands the window combiner the (≤ 1 per side)
// active pieces clipped to each window, and concatenates the results
// with adjacent same-function runs compacted.
//
// It exists as the Θ(m)-work serial baseline and as the reference
// implementation the parallel version is property-tested against.
func CombineWindows(f, g Piecewise, window Window) Piecewise {
	type tagged struct {
		p    Piece
		side int
	}
	all := make([]tagged, 0, len(f)+len(g))
	for _, p := range f {
		all = append(all, tagged{p: p, side: 0})
	}
	for _, p := range g {
		all = append(all, tagged{p: p, side: 1})
	}
	if len(all) == 0 {
		return nil
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].p.Lo != all[j].p.Lo {
			return all[i].p.Lo < all[j].p.Lo
		}
		if all[i].side != all[j].side {
			return all[i].side < all[j].side
		}
		return all[i].p.ID < all[j].p.ID
	})
	var out Piecewise
	var lastF, lastG *Piece
	clipped := make(Piecewise, 2) // the window's fw and gw storage
	for i := range all {
		if all[i].side == 0 {
			lastF = &all[i].p
		} else {
			lastG = &all[i].p
		}
		w0 := all[i].p.Lo
		w1 := math.Inf(1)
		if i+1 < len(all) {
			w1 = all[i+1].p.Lo
		}
		if !(w0 < w1) {
			continue
		}
		var fw, gw Piecewise
		if lastF != nil {
			fw = Clip(clipped[0:0:1], *lastF, w0, w1)
		}
		if lastG != nil {
			gw = Clip(clipped[1:1:2], *lastG, w0, w1)
		}
		out = window(out, fw, gw)
	}
	return out.Compact()
}

// Clip restricts a piece to the window [w0, w1) and returns the at most
// one resulting piece, written into dst's storage when its capacity
// suffices.
func Clip(dst Piecewise, p Piece, w0, w1 float64) Piecewise {
	lo := math.Max(p.Lo, w0)
	hi := math.Min(p.Hi, w1)
	if !(lo < hi) {
		return nil
	}
	return append(dst[:0], Piece{F: p.F, ID: p.ID, Lo: lo, Hi: hi})
}
