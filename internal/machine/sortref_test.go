package machine

// Reference oracle for sort and merge. SortBlocksCols and MergeBlocksCols
// merge sort the occupied registers of each block on the host and charge
// Batcher's bitonic network in closed form; the kernels below are that
// network itself — the round-by-round compare-exchange implementation
// the host sort replaced, kept as a test-only oracle with each round
// charged with the messages it actually exchanged. TestSortMatchesBitonic
// and FuzzSortCols require the two to agree on occupancy, on every
// occupied value, on Stats, on the observer span/round stream, and on
// Stats at the panic when an injector fails a PE mid-sort. Stale values
// of empty registers are not compared: the network carried them through
// its swaps, the host sort zeroes the registers it vacates.
//
// Agreement on values needs a strict total order, which every production
// comparator is (DESIGN.md, S34). The record types below mirror each
// production comparator's key structure, and their generators provoke
// ties in the leading keys: coincident points, collinear directions,
// equal collision times, equal grouping keys.

import (
	"fmt"
	"math/bits"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"dyncg/internal/colstore"
	"dyncg/internal/hypercube"
	"dyncg/internal/mesh"
)

// ceRoundCols is the per-PE body of one compare-exchange round; each
// pair (i, i ⊕ mask) is handled from its smaller index, so writes stay
// disjoint. Occupied registers sort before empty ones, and
// swaps exchange the full register — stale values of empty registers
// included.
func ceRoundCols[T any](val []T, occ []bool, mask, block int, less func(a, b T) bool) {
	n := len(val)
	for i := 0; i < n; i++ {
		j := i ^ mask
		if j <= i || j >= n || i/block != j/block {
			continue
		}
		if (occ[j] && !occ[i]) || (occ[j] && occ[i] && less(val[j], val[i])) {
			val[i], val[j] = val[j], val[i]
			occ[i], occ[j] = occ[j], occ[i]
		}
	}
}

// compareExchangeCols performs one lock-step compare-exchange round
// between PEs i and i ⊕ mask within aligned blocks.
func compareExchangeCols[T any](m *M, f colstore.File[T], mask, block int, less func(a, b T) bool) {
	ceRoundCols(f.Val, f.Occ, mask, block, less)
}

// refMergeBlocksCounted is the bitonic merge network: the
// compare-exchange rounds at masks block−1, block/4, …, 1, each charged
// with the messages the round actually exchanged (two per in-block pair
// on the machine).
func refMergeBlocksCounted[T any](m *M, f colstore.File[T], block int, less func(a, b T) bool) {
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
		compareExchangeCols(m, f, mask, block, less)
		m.chargeXOR(bits.Len(uint(mask))-1, msgs)
	}
	round(block - 1)
	for mask := block / 4; mask >= 1; mask /= 2 {
		round(mask)
	}
}

// refSortBlocksCols is the bitonic sort network: merges of sub-blocks 2,
// 4, …, block.
func refSortBlocksCols[T any](m *M, f colstore.File[T], block int, less func(a, b T) bool) {
	defer closeSpan(pspan(m, "sort", block))
	for sub := 2; sub <= block; sub *= 2 {
		refMergeBlocksCounted(m, f, sub, less)
	}
}

// ptRec mirrors the point sorts of pgeom (ClosestPair's lessX/lessY,
// HullStatic's dedupe and slopeBound): X, then Y, then ID.
type ptRec struct {
	X, Y float64
	ID   int
}

func lessPt(a, b ptRec) bool {
	if a.X != b.X {
		return a.X < b.X
	}
	if a.Y != b.Y {
		return a.Y < b.Y
	}
	return a.ID < b.ID
}

// dirRec mirrors the direction sorts of pgeom (verifySteadyHull,
// sectorOwners): direction by angle, boundaries before queries, then
// the boundary's hull position or owner, then the query's index.
type dirRec struct {
	dx, dy   int
	half     int
	boundary bool
	pos, idx int
}

// dirHalfInt and dirCmpInt are pgeom's dirHalf and dirCmp over exact
// integer directions.
func dirHalfInt(dx, dy int) int {
	if dy > 0 || (dy == 0 && dx > 0) {
		return 0
	}
	return 1
}

func dirCmpInt(a, b dirRec) int {
	c := a.dx*b.dy - a.dy*b.dx
	if c == 0 && a.dx*b.dx+a.dy*b.dy > 0 {
		return 0
	}
	if a.half < b.half || (a.half == b.half && c > 0) {
		return -1
	}
	return 1
}

func lessDir(a, b dirRec) bool {
	za, zb := a.dx == 0 && a.dy == 0, b.dx == 0 && b.dy == 0
	if za != zb {
		return za // zero directions first: dirCmp leaves them unordered
	}
	if c := dirCmpInt(a, b); !za && c != 0 {
		return c < 0
	}
	if a.boundary != b.boundary {
		return a.boundary
	}
	if a.pos != b.pos {
		return a.pos < b.pos
	}
	return a.idx < b.idx
}

// collRec mirrors core.CollisionTimes' chronological sort: T, then B.
type collRec struct {
	T    float64
	A, B int
}

func lessColl(a, b collRec) bool {
	if a.T != b.T {
		return a.T < b.T
	}
	return a.B < b.B
}

// groupRec is a record of the §2.6 grouping operation's sort: key, then
// data before queries, then index.
type groupRec struct {
	v     int
	query bool
	idx   int
}

func lessGroup(a, b groupRec) bool {
	if a.v != b.v {
		return a.v < b.v
	}
	if a.query != b.query {
		return !a.query
	}
	return a.idx < b.idx
}

// sortCase is one randomised sort or merge input: a register file with
// stale values in its empty registers and the block size.
type sortCase[T any] struct {
	f     colstore.File[T]
	block int
	merge bool
}

// genSortCase draws a case over n PEs. gen(r, i) makes the record placed
// i-th, so unique keys can come from i. A sort is front-packed or
// scattered at a random occupancy, over a block of n, a random power of
// two, or a random size; a merge gets a random power-of-two block whose
// halves are each sorted and front-packed, as SortBlocksCols leaves them.
func genSortCase[T any](r *rand.Rand, n int, merge bool, gen func(r *rand.Rand, i int) T, less func(a, b T) bool) sortCase[T] {
	c := sortCase[T]{f: colstore.New[T](n), merge: merge}
	for i := range c.f.Val {
		c.f.Val[i] = gen(r, n+i) // stale
	}
	occP := []float64{0, 0.05, 0.3, 0.8, 1}[r.Intn(5)]
	if !merge {
		c.block = n
		switch r.Intn(3) {
		case 1:
			c.block = 1 << r.Intn(bits.Len(uint(max(n, 1))))
		case 2:
			c.block = 1 + r.Intn(max(n, 1))
		}
		packed := r.Intn(2) == 0
		k := 0
		for i := 0; i < n; i++ {
			if r.Float64() < occP {
				at := i
				if packed {
					at = k
				}
				c.f.Set(at, gen(r, i))
				k++
			}
		}
		return c
	}
	c.block = 1 << r.Intn(bits.Len(uint(max(n, 1))))
	if c.block < 2 {
		c.block = 2
	}
	half := c.block / 2
	id := 0
	for lo := 0; lo < n; lo += half {
		var run []T
		for i := lo; i < min(lo+half, n); i++ {
			if r.Float64() < occP {
				run = append(run, gen(r, id))
				id++
			}
		}
		slices.SortStableFunc(run, func(a, b T) int {
			switch {
			case less(a, b):
				return -1
			case less(b, a):
				return 1
			}
			return 0
		})
		for j, v := range run {
			c.f.Set(lo+j, v)
		}
	}
	return c
}

// runSort runs the case's sort or merge — host (ref false) or network
// (ref true) — on a fresh machine from newM with an attached stream
// recorder and an optional injector, and returns the
// result file, the Stats (at the panic, if the injector fired) and the
// recorded stream.
func runSort[T any](c sortCase[T], newM func() *M, inj Injector, ref bool, less func(a, b T) bool) (f colstore.File[T], st Stats, rec *streamRec, failed bool) {
	m := newM()
	rec = &streamRec{}
	m.SetObserver(rec)
	if inj != nil {
		m.SetInjector(inj)
	}
	f = colstore.New[T](c.f.Len())
	f.CopyFrom(c.f)
	defer func() {
		if p := recover(); p != nil {
			if _, ok := p.(PEFailure); !ok {
				panic(p)
			}
			failed = true
		}
		st = m.Stats()
	}()
	switch {
	case c.merge && ref:
		refMergeBlocksCounted(m, f, c.block, less)
	case c.merge:
		MergeBlocksCols(m, f, c.block, less)
	case ref:
		refSortBlocksCols(m, f, c.block, less)
	default:
		SortBlocksCols(m, f, c.block, less)
	}
	return f, m.Stats(), rec, false
}

// checkSortCase asserts that the host sort or merge and the network agree
// on the case — Occ, every occupied value, Stats and the observer stream
// — and that with a PE failure injected at a round inside the network
// both stop with the same Stats and stream.
func checkSortCase[T comparable](t *testing.T, name string, r *rand.Rand, c sortCase[T], newM func() *M, less func(a, b T) bool) {
	t.Helper()
	n := c.f.Len()
	label := fmt.Sprintf("%s n=%d block=%d merge=%v", name, n, c.block, c.merge)
	want, wantSt, wantRec, _ := runSort(c, newM, nil, true, less)
	got, gotSt, gotRec, _ := runSort(c, newM, nil, false, less)
	for i := 0; i < n; i++ {
		if got.Occ[i] != want.Occ[i] || (want.Occ[i] && got.Val[i] != want.Val[i]) {
			t.Fatalf("%s: PE %d = (%v, %v), network (%v, %v)",
				label, i, got.Val[i], got.Occ[i], want.Val[i], want.Occ[i])
		}
	}
	if gotSt != wantSt {
		t.Fatalf("%s: Stats %+v, network %+v", label, gotSt, wantSt)
	}
	if !reflect.DeepEqual(gotRec, wantRec) {
		t.Fatalf("%s: observer stream diverges\n got %v %v\nwant %v %v",
			label, gotRec.events, gotRec.rounds, wantRec.events, wantRec.rounds)
	}
	if rounds := int(wantSt.Rounds); rounds > 0 {
		at := 1 + r.Intn(rounds)
		_, wantSt, wantRec, wantFail := runSort(c, newM, &failAt{r: at}, true, less)
		_, gotSt, gotRec, gotFail := runSort(c, newM, &failAt{r: at}, false, less)
		if !wantFail || !gotFail {
			t.Fatalf("%s: PE failure at round %d not raised (network %v, host %v)", label, at, wantFail, gotFail)
		}
		if gotSt != wantSt || !reflect.DeepEqual(gotRec, wantRec) {
			t.Fatalf("%s: at a PE failure in round %d, Stats %+v, network %+v",
				label, at, gotSt, wantSt)
		}
	}
}

// sortRecs is the record battery. Each entry checks one random sort and
// one random merge over n PEs of the machine newM builds.
var sortRecs = []struct {
	name string
	run  func(t *testing.T, r *rand.Rand, n int, newM func() *M)
}{
	{"int", func(t *testing.T, r *rand.Rand, n int, newM func() *M) {
		gen := func(r *rand.Rand, _ int) int { return r.Intn(16) }
		for _, merge := range []bool{false, true} {
			checkSortCase(t, "int", r, genSortCase(r, n, merge, gen, intLess), newM, intLess)
		}
	}},
	{"coincident-points", func(t *testing.T, r *rand.Rand, n int, newM func() *M) {
		gen := func(r *rand.Rand, i int) ptRec {
			return ptRec{X: float64(r.Intn(3)), Y: float64(r.Intn(3)) / 2, ID: i}
		}
		for _, merge := range []bool{false, true} {
			checkSortCase(t, "points", r, genSortCase(r, n, merge, gen, lessPt), newM, lessPt)
		}
	}},
	{"collinear-directions", func(t *testing.T, r *rand.Rand, n int, newM func() *M) {
		base := [][2]int{{1, 0}, {1, 1}, {0, 1}, {-2, 1}, {-1, 0}, {-1, -3}, {0, -1}, {2, -1}, {0, 0}}
		gen := func(r *rand.Rand, i int) dirRec {
			b := base[r.Intn(len(base))]
			k := 1 + r.Intn(3)
			d := dirRec{dx: k * b[0], dy: k * b[1], boundary: r.Intn(4) == 0, pos: -1, idx: -1}
			d.half = dirHalfInt(d.dx, d.dy)
			if d.boundary {
				d.pos = i
			} else {
				d.idx = i
			}
			return d
		}
		for _, merge := range []bool{false, true} {
			checkSortCase(t, "directions", r, genSortCase(r, n, merge, gen, lessDir), newM, lessDir)
		}
	}},
	{"equal-collision-times", func(t *testing.T, r *rand.Rand, n int, newM func() *M) {
		gen := func(r *rand.Rand, i int) collRec {
			return collRec{T: float64(r.Intn(4)) / 4, A: r.Intn(3), B: i}
		}
		for _, merge := range []bool{false, true} {
			checkSortCase(t, "collisions", r, genSortCase(r, n, merge, gen, lessColl), newM, lessColl)
		}
	}},
	{"group-keys", func(t *testing.T, r *rand.Rand, n int, newM func() *M) {
		gen := func(r *rand.Rand, i int) groupRec {
			return groupRec{v: r.Intn(5), query: r.Intn(2) == 0, idx: i}
		}
		for _, merge := range []bool{false, true} {
			checkSortCase(t, "group", r, genSortCase(r, n, merge, gen, lessGroup), newM, lessGroup)
		}
	}},
}

// TestSortMatchesBitonic is the property form of the oracle check: every
// record type on hypercubes of 1…4096 PEs and meshes of 1…4096 PEs.
func TestSortMatchesBitonic(t *testing.T) {
	r := rand.New(rand.NewSource(20))
	for n := 1; n <= 4096; n *= 2 {
		topos := map[string]func() *M{
			"hypercube": func() *M { return New(hypercube.MustNew(n)) },
		}
		if bits.TrailingZeros(uint(n))%2 == 0 {
			topos["mesh"] = func() *M { return New(mesh.MustNew(n, mesh.Proximity)) }
		}
		for _, topoName := range []string{"hypercube", "mesh"} {
			newM, ok := topos[topoName]
			if !ok {
				continue
			}
			for _, rec := range sortRecs {
				t.Run(fmt.Sprintf("%s/%d/%s", topoName, n, rec.name), func(t *testing.T) {
					rec.run(t, r, n, newM)
				})
			}
		}
	}
}

// TestSortStableOnTies pins the tie semantics the network did not have:
// under a comparator with ties, each sorted block holds its occupied
// values in stable order — the order slices.SortStableFunc gives.
func TestSortStableOnTies(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	mod7 := func(a, b int) bool { return a%7 < b%7 }
	for _, n := range []int{1, 2, 5, 64, 100, 1024} {
		c := genSortCase(r, n, false, func(r *rand.Rand, _ int) int { return r.Intn(1000) }, mod7)
		f := colstore.New[int](n)
		f.CopyFrom(c.f)
		SortBlocksCols(New(lineTopo(n)), f, c.block, mod7)
		top := 1
		if c.block >= 2 {
			top = 1 << (bits.Len(uint(c.block)) - 1)
		}
		for lo := 0; lo < n; lo += top {
			hi := min(lo+top, n)
			want := colstore.File[int]{Val: c.f.Val[lo:hi], Occ: c.f.Occ[lo:hi]}.Gather()
			if top > 1 {
				slices.SortStableFunc(want, func(a, b int) int { return a%7 - b%7 })
			}
			got := colstore.File[int]{Val: f.Val[lo:hi], Occ: f.Occ[lo:hi]}
			for i := range got.Occ {
				if got.Occ[i] != (i < len(want)) || (i < len(want) && got.Val[i] != want[i]) {
					t.Fatalf("n=%d block=%d: block at %d = %v, want %v front-packed",
						n, c.block, lo, got.Gather(), want)
				}
			}
		}
	}
}

// TestSortRetainsNoValues: the sort's scratch holds positions, not
// values, so a pooled machine keeps no reference to a sorted value —
// after SortCols on a pointer-bearing type, no parked arena buffer of
// that type exists.
func TestSortRetainsNoValues(t *testing.T) {
	const n = 64
	m := New(hypercube.MustNew(n))
	f := colstore.New[*int](n)
	for i := 0; i < n; i += 3 {
		v := n - i
		f.Set(i, &v)
	}
	SortCols(m, f, func(a, b *int) bool { return *a < *b })
	MergeBlocksCols(m, f, n, func(a, b *int) bool { return *a < *b })
	if p := m.scr.pools[reflect.TypeOf((**int)(nil))]; p != nil {
		for _, e := range p.(*pool[*int]).free {
			for _, v := range e.buf[:cap(e.buf)] {
				if v != nil {
					t.Fatal("a parked arena buffer still references a sorted value")
				}
			}
		}
	}
	got := f.Gather()
	for i := 1; i < len(got); i++ {
		if *got[i] < *got[i-1] {
			t.Fatalf("not sorted at %d", i)
		}
	}
}

// FuzzSortCols drives the oracle check from fuzzer-chosen inputs: nSel
// picks the hypercube size (1…4096), recSel the record type, and seed
// everything else (occupancy, layout, block, values, failure round).
func FuzzSortCols(f *testing.F) {
	f.Add(uint8(0), uint8(0), int64(1))
	f.Add(uint8(3), uint8(1), int64(2))
	f.Add(uint8(6), uint8(2), int64(3))
	f.Add(uint8(10), uint8(3), int64(4))
	f.Add(uint8(12), uint8(4), int64(5))
	f.Fuzz(func(t *testing.T, nSel, recSel uint8, seed int64) {
		n := 1 << (int(nSel) % 13)
		r := rand.New(rand.NewSource(seed))
		newM := func() *M { return New(hypercube.MustNew(n)) }
		sortRecs[int(recSel)%len(sortRecs)].run(t, r, n, newM)
	})
}

// TestMergeBlocksColsPowerOfTwo: a merge block below 2 is a no-op and
// any other block must be a power of two.
func TestMergeBlocksColsPowerOfTwo(t *testing.T) {
	m := New(lineTopo(12))
	f := colstore.Scatter(12, []int{3, 1, 2})
	MergeBlocksCols(m, f, 1, intLess)
	if got := f.Gather(); !reflect.DeepEqual(got, []int{3, 1, 2}) || m.Stats() != (Stats{}) {
		t.Fatalf("block 1: registers %v, Stats %+v; want untouched", got, m.Stats())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MergeBlocksCols accepted block 12")
		}
	}()
	MergeBlocksCols(m, f, 12, intLess)
}
