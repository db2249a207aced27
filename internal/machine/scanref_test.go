package machine

// Reference oracle for the parallel prefix. ScanCols computes its result
// with one sequential fold and charges the Hillis–Steele doubling rounds
// in closed form; refScanCols below is the doubling kernel itself — the
// round-by-round implementation ScanCols replaced, kept as a
// test-only oracle. The property test and FuzzScanCols require the two
// to agree on every register byte (stale values of empty registers
// included), on occupancy, on Stats, on the observer span/round stream,
// and on Stats at the panic when an injector fails a PE mid-scan.

import (
	"math/rand"
	"reflect"
	"testing"

	"dyncg/internal/colstore"
	"dyncg/internal/hypercube"
)

// refScanRound is the per-PE body of one doubling round: PE i reads only
// the round-stable val/occ/fl arrays and writes only index i of the
// next-state arrays. Empty registers are identities; a nil op floods
// (the occupied neighbour wins).
func refScanRound[T any](val, nextVal []T, occ, nextOcc, fl, nextFl []bool, off int, dir ScanDir, op func(a, b T) T) int {
	n := len(val)
	msgs := 0
	for i := 0; i < n; i++ {
		var j int
		if dir == Forward {
			j = i - off
		} else {
			j = i + off
		}
		if j < 0 || j >= n || fl[i] {
			continue
		}
		msgs++
		switch {
		case !occ[j]: // empty neighbour: keep local
			nextVal[i], nextOcc[i] = val[i], occ[i]
		case !occ[i]: // empty local: take neighbour
			nextVal[i], nextOcc[i] = val[j], occ[j]
		case op == nil: // flood mode: occupied neighbour wins
			nextVal[i], nextOcc[i] = val[j], true
		case dir == Forward:
			nextVal[i], nextOcc[i] = op(val[j], val[i]), true
		default:
			nextVal[i], nextOcc[i] = op(val[i], val[j]), true
		}
		nextFl[i] = fl[i] || fl[j]
	}
	return msgs
}

// refScanCols is the doubling scan: log₂(longest segment) rounds over all
// n PEs, each charged with the messages it actually sent.
func refScanCols[T any](m *M, f colstore.File[T], segStart []bool, dir ScanDir, op func(a, b T) T) {
	defer closeSpan(pspan(m, "prefix", f.Len()))
	n := f.Len()
	fl := make([]bool, n)
	if dir == Forward {
		copy(fl, segStart)
	} else {
		for i := 0; i < n; i++ {
			fl[i] = i+1 >= n || segStart[i+1]
		}
	}
	maxSeg, run := 0, 0
	for i := 0; i < n; i++ {
		if segStart[i] {
			run = 0
		}
		run++
		if run > maxSeg {
			maxSeg = run
		}
	}
	next := colstore.New[T](n)
	nextFl := make([]bool, n)
	for off := 1; off < maxSeg; off <<= 1 {
		copy(next.Val, f.Val)
		copy(next.Occ, f.Occ)
		copy(nextFl, fl)
		msgs := refScanRound(f.Val, next.Val, f.Occ, next.Occ, fl, nextFl, off, dir, op)
		copy(f.Val, next.Val)
		copy(f.Occ, next.Occ)
		copy(fl, nextFl)
		m.chargeShift(off, msgs)
	}
}

// lineTopo is a linear array of any size: scans are defined for every n,
// while the bundled mesh and hypercube only come in powers of 4 and 2.
type lineTopo int

func (l lineTopo) Size() int             { return int(l) }
func (l lineTopo) Name() string          { return "line" }
func (l lineTopo) Distance(i, j int) int { return max(i-j, j-i) }
func (l lineTopo) Diameter() int         { return max(int(l)-1, 0) }

// failAt is an injector that fails PE 0 permanently at its r-th charged
// communication round (counting from 1) and leaves every other round
// clean.
type failAt struct{ r, seen int }

func (f *failAt) CommRound(RoundInfo) FaultOutcome {
	f.seen++
	if f.seen == f.r {
		return FaultOutcome{FailPE: 0}
	}
	return CleanRound
}

// scanCase is one randomised scan input: a register file with stale
// values in its empty registers, a segment mask, and a direction.
type scanCase[T any] struct {
	f   colstore.File[T]
	seg []bool
	dir ScanDir
}

// genScanCase draws n registers, each occupied with probability occP,
// each starting a segment with probability segP; empty registers still
// carry a random (stale) value.
func genScanCase[T any](r *rand.Rand, n int, gen func(r *rand.Rand) T) scanCase[T] {
	c := scanCase[T]{f: colstore.New[T](n), seg: make([]bool, n), dir: ScanDir(r.Intn(2))}
	occP := r.Float64()
	segP := []float64{0, 0.01, 0.1, 0.5, 1}[r.Intn(5)]
	for i := 0; i < n; i++ {
		c.f.Val[i] = gen(r)
		c.f.Occ[i] = r.Float64() < occP
		c.seg[i] = r.Float64() < segP
	}
	return c
}

// runScan runs scan on a fresh machine of the case's size with an
// attached stream recorder and an optional injector,
// and returns the result file, the Stats (at the panic, if the injector
// fired) and the recorded stream.
func runScan[T any](c scanCase[T], inj Injector, op func(a, b T) T,
	scan func(*M, colstore.File[T], []bool, ScanDir, func(a, b T) T)) (f colstore.File[T], st Stats, rec *streamRec, failed bool) {
	m := New(lineTopo(c.f.Len()))
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
	scan(m, f, c.seg, c.dir, op)
	return f, m.Stats(), rec, false
}

// checkScanCase asserts that ScanCols and the doubling oracle agree on
// the case: every Val byte, Occ, Stats and the observer stream; and,
// with a PE failure injected at a round inside the scan, the same Stats
// at the panic.
func checkScanCase[T comparable](t *testing.T, name string, r *rand.Rand, c scanCase[T], op func(a, b T) T) {
	t.Helper()
	want, wantSt, wantRec, _ := runScan(c, nil, op, refScanCols[T])
	got, gotSt, gotRec, _ := runScan(c, nil, op, ScanCols[T])
	if !reflect.DeepEqual(got.Occ, want.Occ) || !reflect.DeepEqual(got.Val, want.Val) {
		for i := range want.Val {
			if got.Val[i] != want.Val[i] || got.Occ[i] != want.Occ[i] {
				t.Fatalf("%s n=%d dir=%d: PE %d = (%v, %v), doubling oracle (%v, %v)",
					name, c.f.Len(), c.dir, i, got.Val[i], got.Occ[i], want.Val[i], want.Occ[i])
			}
		}
	}
	if gotSt != wantSt {
		t.Fatalf("%s n=%d dir=%d: Stats %+v, doubling oracle %+v", name, c.f.Len(), c.dir, gotSt, wantSt)
	}
	if !reflect.DeepEqual(gotRec, wantRec) {
		t.Fatalf("%s n=%d dir=%d: observer stream diverges\n got %v %v\nwant %v %v",
			name, c.f.Len(), c.dir, gotRec.events, gotRec.rounds, wantRec.events, wantRec.rounds)
	}
	if rounds := int(wantSt.Rounds); rounds > 0 {
		at := 1 + r.Intn(rounds)
		_, wantSt, wantRec, wantFail := runScan(c, &failAt{r: at}, op, refScanCols[T])
		_, gotSt, gotRec, gotFail := runScan(c, &failAt{r: at}, op, ScanCols[T])
		if !wantFail || !gotFail {
			t.Fatalf("%s n=%d: PE failure at round %d not raised (oracle %v, scan %v)", name, c.f.Len(), at, wantFail, gotFail)
		}
		if gotSt != wantSt || !reflect.DeepEqual(gotRec, wantRec) {
			t.Fatalf("%s n=%d dir=%d: at a PE failure in round %d, Stats %+v, doubling oracle %+v",
				name, c.f.Len(), c.dir, at, gotSt, wantSt)
		}
	}
}

// addInt is integer addition.
func addInt(a, b int) int { return a + b }

// minID is a value with an identifier: minIDOp keeps the smaller value,
// the smaller ID on ties — a total order, hence associative.
type minID struct{ v, id int }

func minIDOp(a, b minID) minID {
	if a.v < b.v || (a.v == b.v && a.id < b.id) {
		return a
	}
	return b
}

// perSide has the shape of penvelope's lastSeen: one optional slot per
// side, and perSideLast keeps the latest present value of each side.
type perSide struct {
	f, g     int
	fOk, gOk bool
}

func perSideLast(a, b perSide) perSide {
	out := b
	if !out.fOk {
		out.f, out.fOk = a.f, a.fOk
	}
	if !out.gOk {
		out.g, out.gOk = a.g, a.gOk
	}
	return out
}

func keepLast(a, b int) int { return b }

func genInt(r *rand.Rand) int { return r.Intn(1000) - 500 }

func genMinID(r *rand.Rand) minID { return minID{v: r.Intn(8), id: r.Intn(64)} }

func genPerSide(r *rand.Rand) perSide {
	s := perSide{}
	switch r.Intn(3) {
	case 0:
		s.f, s.fOk = r.Intn(100), true
	case 1:
		s.g, s.gOk = r.Intn(100), true
	default:
		s.f, s.fOk, s.g, s.gOk = r.Intn(100), true, r.Intn(100), true
	}
	return s
}

// scanOps is the op battery: integer addition, keep-last, the nil-op
// flood, min with ID tie-break, and the per-side last of the envelope
// merge's other-piece prefix.
var scanOps = []struct {
	name string
	run  func(t *testing.T, r *rand.Rand, n int)
}{
	{"addInt", func(t *testing.T, r *rand.Rand, n int) {
		checkScanCase(t, "addInt", r, genScanCase(r, n, genInt), addInt)
	}},
	{"keepLast", func(t *testing.T, r *rand.Rand, n int) {
		checkScanCase(t, "keepLast", r, genScanCase(r, n, genInt), keepLast)
	}},
	{"flood", func(t *testing.T, r *rand.Rand, n int) {
		checkScanCase[int](t, "flood", r, genScanCase(r, n, genInt), nil)
	}},
	{"minID", func(t *testing.T, r *rand.Rand, n int) {
		checkScanCase(t, "minID", r, genScanCase(r, n, genMinID), minIDOp)
	}},
	{"perSideLast", func(t *testing.T, r *rand.Rand, n int) {
		checkScanCase(t, "perSideLast", r, genScanCase(r, n, genPerSide), perSideLast)
	}},
}

// TestScanColsMatchesDoublingOracle is the property form of the oracle
// check: random sizes up to 2048 PEs (every size class, not only powers
// of two), random segment masks and occupancy, stale values in empty
// registers, both directions, every op.
func TestScanColsMatchesDoublingOracle(t *testing.T) {
	r := rand.New(rand.NewSource(14))
	sizes := []int{0, 1, 2, 3, 4, 5, 7, 8, 9, 16, 31, 64, 100, 255, 256, 1000, 1024, 2048}
	for iter := 0; iter < 40; iter++ {
		sizes = append(sizes, 1+r.Intn(2048))
	}
	for _, n := range sizes {
		for _, op := range scanOps {
			op.run(t, r, n)
		}
	}
}

// TestScanChargesMatchSparse pins the shared closed form: a dense scan of
// the whole machine as one string charges exactly what the sparse scan's
// single-segment charge does (n − off messages at offset off).
func TestScanChargesMatchSparse(t *testing.T) {
	for _, n := range []int{1, 2, 4, 64, 1024} {
		dense := New(hypercube.MustNew(n))
		f := colstore.New[int](n)
		ScanCols(dense, f, WholeMachine(n), Forward, addInt)
		sparse := New(hypercube.MustNew(n))
		whole := wholeShape(n)
		ChargeScan(sparse, n, &whole)
		if dense.Stats() != sparse.Stats() {
			t.Fatalf("n=%d: dense %+v, sparse %+v", n, dense.Stats(), sparse.Stats())
		}
		var msgs int64
		for off := 1; off < n; off <<= 1 {
			msgs += int64(n - off)
		}
		if dense.Stats().Messages != msgs {
			t.Fatalf("n=%d: %d messages, want Σ(n − off) = %d", n, dense.Stats().Messages, msgs)
		}
	}
}

// FuzzScanCols drives the oracle check from fuzzer-chosen inputs: nSel
// picks the size (0..2048), opSel the op, and seed everything else (the
// segment mask, occupancy, stale values, direction, failure round).
func FuzzScanCols(f *testing.F) {
	f.Add(uint16(0), uint8(0), int64(1))
	f.Add(uint16(17), uint8(1), int64(2))
	f.Add(uint16(64), uint8(2), int64(3))
	f.Add(uint16(1000), uint8(3), int64(4))
	f.Add(uint16(2048), uint8(4), int64(5))
	f.Fuzz(func(t *testing.T, nSel uint16, opSel uint8, seed int64) {
		n := int(nSel) % 2049
		r := rand.New(rand.NewSource(seed))
		scanOps[int(opSel)%len(scanOps)].run(t, r, n)
	})
}
