package penvelope

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"dyncg/internal/colstore"
	"dyncg/internal/curve"
	"dyncg/internal/dsseq"
	"dyncg/internal/hypercube"
	"dyncg/internal/machine"
	"dyncg/internal/mesh"
	"dyncg/internal/pieces"
	"dyncg/internal/poly"
)

// eventRec records a machine's observer stream: span boundaries with
// their attributes, and every charged round.
type eventRec struct {
	events []string
	rounds []machine.RoundInfo
}

func (r *eventRec) SpanBegin(name string, kv []string) {
	ev := "begin:" + name
	for _, s := range kv {
		ev += ":" + s
	}
	r.events = append(r.events, ev)
}
func (r *eventRec) SpanEnd() { r.events = append(r.events, "end") }
func (r *eventRec) Round(ri machine.RoundInfo) {
	r.events = append(r.events, "round")
	r.rounds = append(r.rounds, ri)
}

// failAt fails PE 0 permanently at its r-th charged communication round.
type failAt struct{ r, seen int }

func (f *failAt) CommRound(machine.RoundInfo) machine.FaultOutcome {
	f.seen++
	if f.seen == f.r {
		return machine.FaultOutcome{FailPE: 0}
	}
	return machine.CleanRound
}

// oracleRun is everything observable about one run of a merge body.
type oracleRun struct {
	out    pieces.Piecewise
	err    error
	snaps  []colstore.File[envReg] // register copies after each level
	st     machine.Stats
	rec    *eventRec
	failed bool
}

// mergeBody is one run of a level or a whole caller (Envelope, Combine2, …) on machine m; snap copies
// the register file after a level.
type mergeBody func(m *machine.M, snap func(block int, regs colstore.File[envReg])) (pieces.Piecewise, error)

func newTopoMachine(topo string, N int) *machine.M {
	if topo == "mesh" {
		return machine.New(mesh.MustNew(N, mesh.Proximity))
	}
	return machine.New(hypercube.MustNew(N))
}

func runBody(topo string, N int, inj machine.Injector, body mergeBody) (r oracleRun) {
	m := newTopoMachine(topo, N)
	r.rec = &eventRec{}
	m.SetObserver(r.rec)
	if inj != nil {
		m.SetInjector(inj)
	}
	snap := func(_ int, regs colstore.File[envReg]) {
		cp := colstore.New[envReg](regs.Len())
		cp.CopyFrom(regs)
		r.snaps = append(r.snaps, cp)
	}
	defer func() {
		if p := recover(); p != nil {
			if _, ok := p.(machine.PEFailure); !ok {
				panic(p)
			}
			r.failed = true
		}
		r.st = m.Stats()
	}()
	r.out, r.err = body(m, snap)
	return r
}

// samePiece is bit-for-bit piece equality (the float endpoints compared
// by their bits, so −0 and +0 differ).
func samePiece(a, b pieces.Piece) bool {
	return a.ID == b.ID &&
		math.Float64bits(a.Lo) == math.Float64bits(b.Lo) &&
		math.Float64bits(a.Hi) == math.Float64bits(b.Hi) &&
		reflect.DeepEqual(a.F, b.F)
}

func errText(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// compareRuns fails unless the packed run got and the dense oracle run
// want agree on the result, the error, every register of every level
// snapshot, Stats and the observer stream.
func compareRuns(t *testing.T, label string, got, want oracleRun) {
	t.Helper()
	if errText(got.err) != errText(want.err) {
		t.Fatalf("%s: error %q, dense oracle %q", label, errText(got.err), errText(want.err))
	}
	if len(got.out) != len(want.out) || (got.out == nil) != (want.out == nil) {
		t.Fatalf("%s: result %v, dense oracle %v", label, got.out, want.out)
	}
	for i := range got.out {
		if !samePiece(got.out[i], want.out[i]) {
			t.Fatalf("%s: result piece %d %v, dense oracle %v", label, i, got.out[i], want.out[i])
		}
	}
	if len(got.snaps) != len(want.snaps) {
		t.Fatalf("%s: %d level snapshots, dense oracle %d", label, len(got.snaps), len(want.snaps))
	}
	for l := range got.snaps {
		g, w := got.snaps[l], want.snaps[l]
		for i := range w.Val {
			if g.Occ[i] != w.Occ[i] || g.Val[i].side != w.Val[i].side || !samePiece(g.Val[i].p, w.Val[i].p) {
				t.Fatalf("%s: level %d PE %d = (%v, %v), dense oracle (%v, %v)",
					label, l, i, g.Val[i], g.Occ[i], w.Val[i], w.Occ[i])
			}
		}
	}
	if got.st != want.st {
		t.Fatalf("%s: Stats %+v, dense oracle %+v", label, got.st, want.st)
	}
	if !reflect.DeepEqual(got.rec, want.rec) {
		t.Fatalf("%s: observer stream diverges\n got %v\n     %v\nwant %v\n     %v",
			label, got.rec.events, got.rec.rounds, want.rec.events, want.rec.rounds)
	}
}

// checkBodies runs the packed and the dense body on fresh machines and
// compares them, then fails a PE at a random communication round of the
// run and compares the Stats and streams at the panic. It returns the
// packed run.
func checkBodies(t *testing.T, r *rand.Rand, label, topo string, N int, packed, dense mergeBody) oracleRun {
	t.Helper()
	got := runBody(topo, N, nil, packed)
	want := runBody(topo, N, nil, dense)
	compareRuns(t, label, got, want)
	if rounds := int(want.st.Rounds); rounds > 0 {
		at := 1 + r.Intn(rounds)
		gotF := runBody(topo, N, &failAt{r: at}, packed)
		wantF := runBody(topo, N, &failAt{r: at}, dense)
		if !gotF.failed || !wantF.failed {
			t.Fatalf("%s: PE failure at round %d not raised (packed %v, dense %v)", label, at, gotF.failed, wantF.failed)
		}
		if gotF.st != wantF.st || !reflect.DeepEqual(gotF.rec, wantF.rec) {
			t.Fatalf("%s: at a PE failure in round %d, Stats %+v, dense oracle %+v", label, at, gotF.st, wantF.st)
		}
	}
	return got
}

// levelBodies returns the packed and dense bodies of one merge level (or,
// with window nil, one run combination) over a fresh copy of layout.
func levelBodies(layout colstore.File[envReg], block int, window pieces.Window) (packed, dense mergeBody) {
	mk := func(level func(*machine.M, colstore.File[envReg]) error) mergeBody {
		return func(m *machine.M, snap func(int, colstore.File[envReg])) (pieces.Piecewise, error) {
			regs := colstore.New[envReg](layout.Len())
			regs.CopyFrom(layout)
			if err := level(m, regs); err != nil {
				return nil, err
			}
			snap(block, regs)
			return nil, nil
		}
	}
	if window == nil {
		return mk(func(m *machine.M, regs colstore.File[envReg]) error { return combineRuns(m, regs, block) }),
			mk(func(m *machine.M, regs colstore.File[envReg]) error { return refCombineRuns(m, regs, block) })
	}
	return mk(func(m *machine.M, regs colstore.File[envReg]) error { return mergeLevel(m, regs, block, window) }),
		mk(func(m *machine.M, regs colstore.File[envReg]) error { return refMergeLevel(m, regs, block, window) })
}

// pairLayout lays f and g in the two halves of an N-PE file, as Combine2
// and MergeTree.mergeOnce do.
func pairLayout(N int, f, g pieces.Piecewise) colstore.File[envReg] {
	regs := colstore.New[envReg](N)
	for j, p := range f {
		regs.Set(j, envReg{p: p})
	}
	for j, p := range g {
		regs.Set(N/2+j, envReg{p: p})
	}
	return regs
}

// randPoly draws a polynomial of degree ≤ deg with coefficients of the
// given scale.
func randPoly(r *rand.Rand, deg int, scale float64) curve.Poly {
	c := make([]float64, deg+1)
	for j := range c {
		c[j] = r.NormFloat64() * scale
	}
	return curve.NewPoly(poly.New(c...))
}

// randPartial draws a partial function of 1–3 pieces on disjoint
// intervals of [0, ~12) (the last one possibly unbounded), all on one
// curve — a Theorem 3.4 input.
func randPartial(r *rand.Rand, id, deg int) pieces.Piecewise {
	c := randPoly(r, deg, 3)
	var ivs [][2]float64
	t := r.Float64() * 2
	for k := 1 + r.Intn(3); k > 0; k-- {
		hi := t + 0.25 + r.Float64()*3
		if k == 1 && r.Intn(3) == 0 {
			hi = math.Inf(1)
		}
		ivs = append(ivs, [2]float64{t, hi})
		t = hi + r.Float64()
	}
	return pieces.OnIntervals(c, id, ivs)
}

// diffWindow is the shape of core's containment difference window: f − g
// on the overlap of the two window pieces.
func diffWindow(dst, fw, gw pieces.Piecewise) pieces.Piecewise {
	if len(fw) == 0 || len(gw) == 0 {
		return dst
	}
	f, g := fw[0], gw[0]
	lo, hi := math.Max(f.Lo, g.Lo), math.Min(f.Hi, g.Hi)
	if !(lo < hi) {
		return dst
	}
	d := f.F.(curve.Poly).P.Sub(g.F.(curve.Poly).P)
	return append(dst, pieces.Piece{F: curve.NewPoly(d), ID: 1000*f.ID + g.ID, Lo: lo, Hi: hi})
}

// belowWindow is the shape of core's hull-membership indicator window:
// 0 on the margins where only one side is defined, and [f ≤ g] (IDs equal
// the indicator value, so runs combine across windows) between the roots
// of f − g on the overlap.
func belowWindow(dst, fw, gw pieces.Piecewise) pieces.Piecewise {
	emit := func(v int, a, b float64) {
		if a < b {
			dst = append(dst, pieces.Piece{F: curve.Const(float64(v)), ID: v, Lo: a, Hi: b})
		}
	}
	if len(fw) == 0 || len(gw) == 0 {
		src := fw
		if len(src) == 0 {
			src = gw
		}
		emit(0, src[0].Lo, src[0].Hi)
		return dst
	}
	f, g := fw[0], gw[0]
	lo, hi := math.Max(f.Lo, g.Lo), math.Min(f.Hi, g.Hi)
	emit(0, f.Lo, math.Min(f.Hi, lo))
	emit(0, g.Lo, math.Min(g.Hi, lo))
	if !(lo < hi) {
		return dst
	}
	d := f.F.(curve.Poly).P.Sub(g.F.(curve.Poly).P)
	cuts := append([]float64{lo}, d.Roots(lo, hi)...)
	cuts = append(cuts, hi)
	for i := 0; i+1 < len(cuts); i++ {
		a, b := cuts[i], cuts[i+1]
		mid := a + 1
		if !math.IsInf(b, 1) {
			mid = (a + b) / 2
		}
		v := 0
		if d.Eval(mid) <= 0 {
			v = 1
		}
		emit(v, a, b)
	}
	return dst
}

// thresholdPieces splits a piece at the roots of p − x into 0/1
// indicator pieces — core's MapPieces transform.
func thresholdPieces(x float64) func(pieces.Piece) []pieces.Piece {
	return func(p pieces.Piece) []pieces.Piece {
		pp := p.F.(curve.Poly).P.Sub(poly.Constant(x))
		cuts := append([]float64{p.Lo}, pp.Roots(p.Lo, p.Hi)...)
		cuts = append(cuts, p.Hi)
		var out []pieces.Piece
		for i := 0; i+1 < len(cuts); i++ {
			lo, hi := cuts[i], cuts[i+1]
			if !(lo < hi) {
				continue
			}
			mid := lo + 1
			if !math.IsInf(hi, 1) {
				mid = (lo + hi) / 2
			}
			v := 0
			if pp.Eval(mid) <= 0 {
				v = 1
			}
			out = append(out, pieces.Piece{F: curve.Const(float64(v)), ID: v, Lo: lo, Hi: hi})
		}
		return out
	}
}

// machineSizes returns the PE counts 1–4× the minimum size min on a
// topology (the mesh only comes in powers of four).
func machineSizes(topo string, min int) []int {
	if topo == "mesh" {
		min = dsseq.NextPow4(min)
		return []int{min, 4 * min}
	}
	min = dsseq.NextPow2(min)
	return []int{min, 2 * min, 4 * min}
}

var oracleTopos = []string{"mesh", "hypercube"}

// TestMergeLevelMatchesDense pins the packed Lemma 3.1 level to the dense
// round-by-round oracle of mergeref_test.go through every caller:
// Envelope (min and max, total and partial inputs, every level's
// registers), Combine2 with core-shaped windows, MapPieces, and
// MergeTree dirty-node re-merges including the ErrBlockCapacity retry —
// on the mesh and the hypercube, machines 1–4× the minimum size, and
// with a PE failure injected at a random round.
func TestMergeLevelMatchesDense(t *testing.T) {
	r := rand.New(rand.NewSource(19))
	capacityErrors := 0
	for trial := 0; trial < 12; trial++ {
		n := 1 + r.Intn(16)
		deg := 1 + r.Intn(3)
		kind := pieces.Kind(r.Intn(2))
		partial := r.Intn(2) == 0
		fs := make([]pieces.Piecewise, n)
		for i := range fs {
			if partial {
				fs[i] = randPartial(r, i, deg)
			} else {
				fs[i] = pieces.Total(randPoly(r, deg, 3), i)
			}
		}
		for _, topo := range oracleTopos {
			minN := CubePEs(n, deg)
			if partial {
				minN = CubePEs(3*n, deg+2)
			}
			for _, N := range machineSizes(topo, minN) {
				label := topo + "/envelope"
				checkBodies(t, r, label, topo, N,
					func(m *machine.M, snap func(int, colstore.File[envReg])) (pieces.Piecewise, error) {
						return envelope(m, fs, kind, snap)
					},
					func(m *machine.M, snap func(int, colstore.File[envReg])) (pieces.Piecewise, error) {
						return refEnvelope(m, fs, kind, snap)
					})
			}
		}
	}

	windows := map[string]pieces.Window{
		"min": func(dst, fw, gw pieces.Piecewise) pieces.Piecewise {
			return pieces.AppendMerge(dst, fw, gw, pieces.Min)
		},
		"max": func(dst, fw, gw pieces.Piecewise) pieces.Piecewise {
			return pieces.AppendMerge(dst, fw, gw, pieces.Max)
		},
		"diff":  diffWindow,
		"below": belowWindow,
	}
	for trial := 0; trial < 12; trial++ {
		deg := 1 + r.Intn(3)
		f, g := randPartial(r, 0, deg), randPartial(r, 1, deg)
		if r.Intn(4) == 0 {
			f = nil // one side undefined everywhere
		}
		for name, window := range windows {
			for _, topo := range oracleTopos {
				for _, N := range machineSizes(topo, 16) {
					label := topo + "/Combine2/" + name
					checkBodies(t, r, label, topo, N,
						func(m *machine.M, _ func(int, colstore.File[envReg])) (pieces.Piecewise, error) {
							return Combine2(m, f, g, window)
						},
						func(m *machine.M, _ func(int, colstore.File[envReg])) (pieces.Piecewise, error) {
							return refCombine2(m, f, g, window)
						})
					packed, dense := levelBodies(pairLayout(N, f, g), N, window)
					checkBodies(t, r, label+"/level", topo, N, packed, dense)
				}
			}
		}
		fn := thresholdPieces(r.NormFloat64() * 3)
		h, err := MergeMinMax(machine.New(hypercube.MustNew(16)), f, g, pieces.Min)
		if err != nil {
			t.Fatal(err)
		}
		for _, topo := range oracleTopos {
			for _, N := range machineSizes(topo, 64) {
				label := topo + "/MapPieces"
				checkBodies(t, r, label, topo, N,
					func(m *machine.M, _ func(int, colstore.File[envReg])) (pieces.Piecewise, error) {
						return MapPieces(m, h, fn)
					},
					func(m *machine.M, _ func(int, colstore.File[envReg])) (pieces.Piecewise, error) {
						return refMapPieces(m, h, fn)
					})
				var packedRun pieces.Piecewise
				for _, p := range h {
					packedRun = append(packedRun, fn(p)...)
				}
				packed, dense := levelBodies(pairLayout(N, packedRun, nil), N, nil)
				checkBodies(t, r, label+"/combine-runs", topo, N, packed, dense)
			}
		}
	}

	// MergeTree: a retained tree under random leaf replacements. Every
	// dirty node is re-merged by the packed mergeNode and the dense
	// refMergeNode, and every block size mergeNode tries — including the
	// under-sized ones that end in ErrBlockCapacity — is checked as a
	// level.
	for trial := 0; trial < 6; trial++ {
		topo := oracleTopos[trial%2]
		n := 4 + r.Intn(12)
		deg := 2 + r.Intn(2)
		N := machineSizes(topo, CubePEs(dsseq.NextPow2(n), deg+1))[0]
		kind := pieces.Kind(r.Intn(2))
		fs := leavesOf(r, n, deg)
		tr, err := NewMergeTree(newTopoMachine(topo, N), fs, kind)
		if err != nil {
			t.Fatalf("NewMergeTree: %v", err)
		}
		for batch := 0; batch < 4; batch++ {
			var ups []TreeUpdate
			dirty := map[int]bool{}
			for k := 1 + r.Intn(3); k > 0; k-- {
				slot := r.Intn(tr.Slots())
				var f pieces.Piecewise
				if r.Intn(5) > 0 {
					f = pieces.Total(randPoly(r, deg, 3), slot)
				}
				ups = append(ups, TreeUpdate{Slot: slot, F: f})
				dirty[slot] = true
			}
			if _, err := tr.Update(newTopoMachine(topo, N), ups); err != nil {
				t.Fatalf("Update: %v", err)
			}
			for l := 1; l < len(tr.levels); l++ {
				parents := map[int]bool{}
				for b := range dirty {
					parents[b>>1] = true
				}
				for b := range parents {
					f, g := tr.levels[l-1][2*b], tr.levels[l-1][2*b+1]
					label := topo + "/MergeTree"
					got := checkBodies(t, r, label, topo, N,
						func(m *machine.M, _ func(int, colstore.File[envReg])) (pieces.Piecewise, error) {
							return tr.mergeNode(m, l, f, g)
						},
						func(m *machine.M, _ func(int, colstore.File[envReg])) (pieces.Piecewise, error) {
							return refMergeNode(tr, m, l, f, g)
						})
					if !reflect.DeepEqual(got.out, tr.levels[l][b]) {
						t.Fatalf("%s: re-merged node (%d, %d) differs from the tree's", label, l, b)
					}
					full := tr.stride << l
					block := min(dsseq.NextPow2(max(len(f), len(g), 1))*4, full)
					for ; block <= full; block *= 2 {
						packed, dense := levelBodies(pairLayout(block, f, g), block, windows[kindName(kind)])
						run := checkBodies(t, r, label+"/level", topo, N, packed, dense)
						if !errors.Is(run.err, ErrBlockCapacity) {
							break
						}
						capacityErrors++
					}
					// An under-sized block: the merged population
					// commonly overflows it.
					if block := dsseq.NextPow2(max(len(f), len(g), 1)) * 2; block < full {
						packed, dense := levelBodies(pairLayout(block, f, g), block, windows[kindName(kind)])
						if run := checkBodies(t, r, label+"/small", topo, N, packed, dense); errors.Is(run.err, ErrBlockCapacity) {
							capacityErrors++
						}
					}
				}
				dirty = parents
			}
		}
	}
	if capacityErrors == 0 {
		t.Fatal("no level ended in ErrBlockCapacity: the retry path went unchecked")
	}
}

// FuzzMergeLevel drives the packed-vs-dense oracle check from
// fuzzer-chosen curves. The coefficients are not capped the way
// FuzzEnvelopeMerge caps them: near float64's range the breakpoints and
// window spans overflow, which is where a merge order that is not a
// strict total order would make the packed merge and the bitonic network
// part ways. seed draws the rest: the partial functions' intervals, the
// machine and the failure round. Each input runs a
// Combine2-layout level under the min, diff and indicator windows and a
// Theorem 3.2 envelope of four curves built from the coefficients.
func FuzzMergeLevel(f *testing.F) {
	f.Add(int64(1), 1.0, -2.0, 0.5, 0.0, 1.0, -0.25)
	f.Add(int64(2), 0.0, 0.0, 1.0, 0.0, 0.0, 1.0) // identical curves
	f.Add(int64(3), 1e300, -1e300, 1e-300, -1e300, 1e300, 1.0)
	f.Add(int64(4), math.MaxFloat64, -math.MaxFloat64, math.MaxFloat64, 0.0, math.MaxFloat64, -1.0)
	f.Fuzz(func(t *testing.T, seed int64, a0, a1, a2, b0, b1, b2 float64) {
		for _, c := range []float64{a0, a1, a2, b0, b1, b2} {
			if math.IsNaN(c) || math.IsInf(c, 0) {
				t.Skip()
			}
		}
		r := rand.New(rand.NewSource(seed))
		a := curve.NewPoly(poly.New(a0, a1, a2))
		b := curve.NewPoly(poly.New(b0, b1, b2))
		onIntervals := func(c curve.Curve, id int) pieces.Piecewise {
			pw := randPartial(r, id, 0)
			for i := range pw {
				pw[i].F = c
			}
			return pw
		}
		topo := oracleTopos[r.Intn(2)]
		fa, gb := onIntervals(a, 0), onIntervals(b, 1)
		for name, window := range map[string]pieces.Window{
			"min": func(dst, fw, gw pieces.Piecewise) pieces.Piecewise {
				return pieces.AppendMerge(dst, fw, gw, pieces.Min)
			},
			"diff":  diffWindow,
			"below": belowWindow,
		} {
			N := machineSizes(topo, 16)[r.Intn(2)]
			packed, dense := levelBodies(pairLayout(N, fa, gb), N, window)
			checkBodies(t, r, topo+"/level/"+name, topo, N, packed, dense)
		}
		fs := []pieces.Piecewise{
			pieces.Total(a, 0),
			pieces.Total(b, 1),
			onIntervals(a, 2),
			onIntervals(b, 3),
		}
		kind := pieces.Kind(r.Intn(2))
		N := machineSizes(topo, CubePEs(12, 4))[r.Intn(2)]
		checkBodies(t, r, topo+"/envelope", topo, N,
			func(m *machine.M, snap func(int, colstore.File[envReg])) (pieces.Piecewise, error) {
				return envelope(m, fs, kind, snap)
			},
			func(m *machine.M, snap func(int, colstore.File[envReg])) (pieces.Piecewise, error) {
				return refEnvelope(m, fs, kind, snap)
			})
	})
}
