package penvelope

// Reference oracle for the packed Lemma 3.1 level. mergeLevel and
// combineRuns do host work per piece and charge the machine through
// machine's charge-only entry points; refMergeLevel and refCombineRuns
// below are the dense round-by-round bodies they replaced — a bitonic
// MergeBlocksCols, shifts, scans and a compaction over all N registers —
// kept as the test oracle, together with the callers that ran them
// as they were (refEnvelope, refCombine2, refMapPieces, refMergeNode).
// TestMergeLevelMatchesDense and FuzzMergeLevel require the two to agree
// on every register after every level, on the result and error, on
// Stats, on the observer span/round stream, and on Stats at the panic
// when an injector fails a PE mid-level.

import (
	"errors"
	"fmt"
	"math"
	"strconv"

	"dyncg/internal/colstore"
	"dyncg/internal/dsseq"
	"dyncg/internal/machine"
	"dyncg/internal/pieces"
)

func refMergeLevel(m *machine.M, regs colstore.File[envReg], block int, window pieces.Window) error {
	if m.Observed() {
		m.SpanBegin("lemma3.1-merge", "block", strconv.Itoa(block))
		defer m.SpanEnd()
	}
	N := regs.Len()
	half := block / 2
	// Step 1: tag sides.
	m.ChargeLocal(1)
	for i := 0; i < N; i++ {
		if regs.Occ[i] {
			regs.Val[i].side = uint8((i / half) % 2)
		}
	}
	// Step 2: merge the two runs by interval left endpoint. Ties broken
	// by side then ID for determinism (the paper breaks ties in favour of
	// Right records; any fixed rule works here because empty windows are
	// skipped).
	machine.MergeBlocksCols(m, regs, block, regLess)
	// Step 3: parallel prefix gives every PE the latest piece of each
	// side starting at or before its own (the other-piece field).
	seg := machine.GetScratch[bool](m, N)
	for i := 0; i < N; i += block {
		seg[i] = true
	}
	seen := machine.GetCols[lastSeen](m, N)
	m.ChargeLocal(1)
	for i := 0; i < N; i++ {
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
	maxEmit := 0
	for i := 0; i < N; i++ {
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
			fw = pieces.Clip(nil, ls.f, w0, w1)
		}
		if ls.gOk {
			gw = pieces.Clip(nil, ls.g, w0, w1)
		}
		emitted[i] = window(nil, fw, gw)
		maxEmit = max(maxEmit, len(emitted[i]))
	}
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
	return refCombineRuns(m, regs, block)
}

// combineRuns merges maximal runs of adjacent pieces with equal ID whose
// intervals abut, the parallel form of Piecewise.Compact.
func refCombineRuns(m *machine.M, regs colstore.File[envReg], block int) error {
	if m.Observed() {
		m.SpanBegin("combine-runs", "block", strconv.Itoa(block))
		defer m.SpanEnd()
	}
	N := regs.Len()
	prev := machine.ShiftWithinCols(m, regs, block, +1) // prev[i] = regs[i-1]
	runStart := machine.GetScratch[bool](m, N)
	m.ChargeLocal(1)
	for i := 0; i < N; i++ {
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

// refEnvelope is envelope over refMergeLevel.
func refEnvelope(m *machine.M, fs []pieces.Piecewise, kind pieces.Kind, snap func(block int, regs colstore.File[envReg])) (pieces.Piecewise, error) {
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
	n2 := dsseq.NextPow2(n)
	stride := N / n2
	if stride < dsseq.NextPow2(maxInit) {
		return nil, fmt.Errorf("penvelope: %d functions with ≤%d pieces need ≥%d PEs, machine has %d: %w",
			n, maxInit, n2*dsseq.NextPow2(maxInit), N, machine.ErrTooFewPEs)
	}
	regs := machine.GetCols[envReg](m, N)
	defer machine.PutCols(m, regs)
	for i, f := range fs {
		for j, p := range f {
			regs.Set(i*stride+j, envReg{p: p})
		}
	}
	window := func(dst, fw, gw pieces.Piecewise) pieces.Piecewise {
		return pieces.AppendMerge(dst, fw, gw, kind)
	}
	for block := stride * 2; block <= N; block *= 2 {
		if err := refMergeLevel(m, regs, block, window); err != nil {
			return nil, err
		}
		if snap != nil {
			snap(block, regs)
		}
	}
	out := refOccupiedPieces(regs)
	if err := out.Validate(); err != nil {
		return nil, fmt.Errorf("penvelope: invalid result: %w", err)
	}
	return out, nil
}

// refOccupiedPieces returns the occupied registers' pieces in PE order,
// as a non-nil slice.
func refOccupiedPieces(regs colstore.File[envReg]) pieces.Piecewise {
	out := pieces.Piecewise{}
	for i, ok := range regs.Occ {
		if ok {
			out = append(out, regs.Val[i].p)
		}
	}
	return out
}

// refCombine2 is Combine2 over refMergeLevel.
func refCombine2(m *machine.M, f, g pieces.Piecewise, window pieces.Window) (pieces.Piecewise, error) {
	N := m.Size()
	if len(f) > N/2 || len(g) > N/2 {
		return nil, fmt.Errorf("penvelope: Combine2 inputs (%d, %d pieces) exceed machine halves (%d PEs): %w",
			len(f), len(g), N, machine.ErrTooFewPEs)
	}
	regs := colstore.New[envReg](N)
	for j, p := range f {
		regs.Set(j, envReg{p: p})
	}
	for j, p := range g {
		regs.Set(N/2+j, envReg{p: p})
	}
	if err := refMergeLevel(m, regs, N, window); err != nil {
		return nil, err
	}
	out := refOccupiedPieces(regs)
	if err := out.Validate(); err != nil {
		return nil, fmt.Errorf("penvelope: Combine2 produced invalid pieces: %w", err)
	}
	return out, nil
}

// refMapPieces is MapPieces over refCombineRuns.
func refMapPieces(m *machine.M, f pieces.Piecewise, fn func(pieces.Piece) []pieces.Piece) (pieces.Piecewise, error) {
	N := m.Size()
	if len(f) > N {
		return nil, fmt.Errorf("penvelope: MapPieces input (%d pieces) exceeds machine (%d PEs): %w", len(f), N, machine.ErrTooFewPEs)
	}
	emitted := make([][]pieces.Piece, N)
	m.ChargeLocal(1)
	total := 0
	for i, p := range f {
		emitted[i] = fn(p)
		total += len(emitted[i])
	}
	if total > N {
		return nil, fmt.Errorf("penvelope: MapPieces expansion (%d pieces) exceeds machine (%d PEs): %w", total, N, machine.ErrTooFewPEs)
	}
	counts := machine.GetCols[int](m, N)
	m.ChargeLocal(1)
	for i := 0; i < N; i++ {
		counts.Set(i, len(emitted[i]))
	}
	machine.ScanCols(m, counts, machine.WholeMachine(N), machine.Forward,
		func(a, b int) int { return a + b })
	regs := colstore.New[envReg](N)
	maxEmit := 0
	for i := range emitted {
		if len(emitted[i]) > maxEmit {
			maxEmit = len(emitted[i])
		}
		base := counts.Val[i] - len(emitted[i])
		for j, p := range emitted[i] {
			regs.Set(base+j, envReg{p: p})
		}
	}
	for j := 0; j < maxEmit; j++ {
		var src, dst []int
		for i := range emitted {
			if j < len(emitted[i]) {
				src = append(src, i)
				dst = append(dst, counts.Val[i]-len(emitted[i])+j)
			}
		}
		m.ChargeRoute(src, dst)
	}
	machine.PutCols(m, counts)
	if err := refCombineRuns(m, regs, N); err != nil {
		return nil, err
	}
	out := refOccupiedPieces(regs)
	if err := out.Validate(); err != nil {
		return nil, fmt.Errorf("penvelope: MapPieces produced invalid pieces: %w", err)
	}
	return out, nil
}

// refMergeNode is MergeTree.mergeNode over refMergeLevel.
func refMergeNode(t *MergeTree, m *machine.M, level int, f, g pieces.Piecewise) (pieces.Piecewise, error) {
	full := t.stride << level
	need := max(len(f), len(g), 1)
	block := min(dsseq.NextPow2(need)*4, full)
	for {
		regs := colstore.New[envReg](block)
		for j, p := range f {
			regs.Set(j, envReg{p: p})
		}
		for j, p := range g {
			regs.Set(block/2+j, envReg{p: p})
		}
		window := func(dst, fw, gw pieces.Piecewise) pieces.Piecewise {
			return pieces.AppendMerge(dst, fw, gw, t.kind)
		}
		err := refMergeLevel(m, regs, block, window)
		if err == nil {
			return frontRun(regs, 0, block), nil
		}
		if errors.Is(err, ErrBlockCapacity) && block < full {
			block *= 2
			continue
		}
		return nil, err
	}
}
