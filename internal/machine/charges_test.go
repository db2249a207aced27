package machine

import (
	"math/rand"
	"reflect"
	"testing"

	"dyncg/internal/colstore"
)

// refMergeBlocksCounted is the merge as it charged before the closed
// form: the same compare-exchange rounds, each charged with the messages
// the round actually exchanged (two per in-block pair on the machine).
func refMergeBlocksCounted(m *M, f colstore.File[int], block int, less func(a, b int) bool) {
	if block < 2 {
		return
	}
	defer closeSpan(pspan(m, "merge", block))
	round := func(mask int) {
		n := f.Len()
		msgs := 0
		for i := 0; i < n; i++ {
			if j := i ^ mask; j > i && j < n && i/block == j/block {
				msgs += 2
			}
		}
		ceRoundCols(f.Val, f.Occ, mask, block, less, 0, n)
		b := 0
		for 1<<(b+1) <= mask {
			b++
		}
		m.chargeXOR(b, msgs)
	}
	round(block - 1)
	for mask := block / 4; mask >= 1; mask /= 2 {
		round(mask)
	}
}

// refCompactCols is the compaction as it ran before the sequential rank
// pass: a rank prefix over 0/1 occupancy counts and a flood of each
// segment's base index, both through ScanCols, then one route.
func refCompactCols(m *M, f colstore.File[int], segStart []bool) {
	defer closeSpan(pspan(m, "compact", f.Len()))
	n := f.Len()
	counts := colstore.New[int](n)
	m.ChargeLocal(1)
	for i := 0; i < n; i++ {
		c := 0
		if f.Occ[i] {
			c = 1
		}
		counts.Set(i, c)
	}
	ScanCols(m, counts, segStart, Forward, addInt)
	segBase := colstore.New[int](n)
	m.ChargeLocal(1)
	for i := 0; i < n; i++ {
		if segStart[i] {
			segBase.Set(i, i)
		}
	}
	ScanCols(m, segBase, segStart, Forward, nil)
	out := colstore.New[int](n)
	var src, dst []int
	for i := 0; i < n; i++ {
		if !f.Occ[i] {
			continue
		}
		d := segBase.Val[i] + counts.Val[i] - 1
		src = append(src, i)
		dst = append(dst, d)
		out.Set(d, f.Val[i])
	}
	m.ChargeRoute(src, dst)
	f.CopyFrom(out)
}

// maskShape builds a segment mask's ScanShape the long way: segments
// start at PE 0 and at every marked PE.
func maskShape(seg []bool) ScanShape {
	var h ScanShape
	start := 0
	for i := 1; i <= len(seg); i++ {
		if i == len(seg) || seg[i] {
			h.Add(i - start)
			start = i
		}
	}
	return h
}

// recorded runs body on a fresh n-PE line machine with a stream recorder
// and returns the Stats and the stream.
func recorded(n int, body func(m *M)) (Stats, *streamRec) {
	m := New(lineTopo(n))
	rec := &streamRec{}
	m.SetObserver(rec)
	body(m)
	return m.Stats(), rec
}

func sameStream(t *testing.T, label string, gotSt Stats, got *streamRec, wantSt Stats, want *streamRec) {
	t.Helper()
	if gotSt != wantSt || !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: Stats %+v stream %v %v\nwant Stats %+v stream %v %v",
			label, gotSt, got.events, got.rounds, wantSt, want.events, want.rounds)
	}
}

// TestChargeHelpersMatchDense: for random machine sizes (not only powers
// of two), blocks, occupancy and segment masks, every dense primitive's
// round stream equals the stream its charge-only helper emits from the
// primitive's shape alone, and the merge and the compaction also match
// their pre-closed-form implementations register for register.
func TestChargeHelpersMatchDense(t *testing.T) {
	r := rand.New(rand.NewSource(33))
	sizes := []int{1, 2, 3, 4, 7, 8, 16, 31, 64, 100, 256, 1000, 1024}
	for iter := 0; iter < 30; iter++ {
		sizes = append(sizes, 1+r.Intn(2048))
	}
	for _, n := range sizes {
		occP := r.Float64()
		vals := make([]int, n)
		occ := make([]bool, n)
		for i := range vals {
			vals[i] = r.Intn(100)
			occ[i] = r.Float64() < occP
		}
		file := func() colstore.File[int] {
			f := colstore.New[int](n)
			copy(f.Val, vals)
			copy(f.Occ, occ)
			return f
		}
		blocks := []int{n}
		for b := 1; b < n; b *= 2 {
			blocks = append(blocks, b)
		}
		segP := []float64{0, 0.05, 0.5, 1}[r.Intn(4)]
		seg := make([]bool, n)
		for i := range seg {
			seg[i] = r.Float64() < segP
		}

		// Scan: any mask, and every block mask through AddBlocks.
		st, rec := recorded(n, func(m *M) { ScanCols(m, file(), seg, Forward, addInt) })
		shape := maskShape(seg)
		hst, hrec := recorded(n, func(m *M) { ChargeScan(m, n, &shape) })
		sameStream(t, "scan", st, rec, hst, hrec)
		for _, block := range blocks {
			bseg := BlockSegments(n, block)
			st, rec := recorded(n, func(m *M) { ScanCols(m, file(), bseg, Backward, nil) })
			var bshape ScanShape
			bshape.AddBlocks(n, block)
			hst, hrec := recorded(n, func(m *M) { ChargeScan(m, n, &bshape) })
			sameStream(t, "scan/blocks", st, rec, hst, hrec)
		}

		// Merge: the closed form against the counted rounds.
		for _, block := range blocks {
			got, want := file(), file()
			SortBlocksCols(New(lineTopo(n)), got, max(block/2, 1), intLess)
			want.CopyFrom(got)
			st, rec := recorded(n, func(m *M) { MergeBlocksCols(m, got, block, intLess) })
			wst, wrec := recorded(n, func(m *M) { refMergeBlocksCounted(m, want, block, intLess) })
			sameStream(t, "merge", st, rec, wst, wrec)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("n=%d block=%d: merge registers differ from the counted rounds", n, block)
			}
			hst, hrec := recorded(n, func(m *M) { ChargeMergeBlocks(m, n, block) })
			sameStream(t, "merge/helper", st, rec, hst, hrec)
		}

		// Compact: the sequential rank pass against the scan-based one.
		got, want := file(), file()
		st, rec = recorded(n, func(m *M) { CompactCols(m, got, seg) })
		wst, wrec := recorded(n, func(m *M) { refCompactCols(m, want, seg) })
		sameStream(t, "compact", st, rec, wst, wrec)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("n=%d: compact registers differ from the scan-based compaction", n)
		}
		var src, dst []int
		next := 0
		for i := 0; i < n; i++ {
			if seg[i] {
				next = i
			}
			if occ[i] {
				src, dst = append(src, i), append(dst, next)
				next++
			}
		}
		hst, hrec = recorded(n, func(m *M) { ChargeCompact(m, n, &shape, src, dst) })
		sameStream(t, "compact/helper", st, rec, hst, hrec)

		// Shift: the round's message count is the in-block occupied
		// sources.
		for _, block := range blocks {
			for _, delta := range []int{-1, +1, 3} {
				st, rec := recorded(n, func(m *M) { PutCols(m, ShiftWithinCols(m, file(), block, delta)) })
				msgs := 0
				for j := 0; j < n; j++ {
					if i := j + delta; occ[j] && i >= 0 && i < n && i/block == j/block {
						msgs++
					}
				}
				hst, hrec := recorded(n, func(m *M) { ChargeShift(m, delta, msgs) })
				sameStream(t, "shift", st, rec, hst, hrec)
			}
		}
	}
}
