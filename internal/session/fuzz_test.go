package session

// FuzzSessionUpdates drives byte-derived update batches through a
// session engine and cross-checks every accepted batch against the
// from-scratch oracle (auditEngine: cached leaves, answer and charged
// cost) — the fuzzing arm of the differential battery.
// Rejected batches must be atomic: a twin engine that receives only the
// accepted batches must agree with the fuzzed one after every batch, so
// slot state a rejected batch leaked would surface as a divergence in
// live IDs, answers, inserted IDs, apply stats or charged cost.

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"dyncg/internal/hypercube"
	"dyncg/internal/machine"
	"dyncg/internal/motion"
)

var fuzzAlgos = []Algo{
	ClosestPointSeq, FarthestPointSeq, ClosestPairSeq, FarthestPairSeq,
	CubeEdge, SmallestEver, Containment,
}

// fuzzDelta decodes one delta from three opcode bytes: operation,
// target selector, and a coefficient seed for fresh trajectories.
func fuzzDelta(op, target, coef byte, d, k int) Delta {
	r := rand.New(rand.NewSource(int64(coef)*7919 + 13))
	switch op % 4 {
	case 0:
		return Delta{Op: OpInsert, Point: randPoint(r, d, k)}
	case 1:
		return Delta{Op: OpDelete, ID: int(target % 16)}
	case 2:
		return Delta{Op: OpRetarget, ID: int(target % 16), Point: randPoint(r, d, k)}
	default:
		// Occasionally malformed: wrong dimension or degree, exercising
		// the rejection path.
		return Delta{Op: OpRetarget, ID: int(target % 16), Point: randPoint(r, d+1, k+2)}
	}
}

func FuzzSessionUpdates(f *testing.F) {
	f.Add(int64(1), []byte{0, 0, 1, 0, 1, 2, 1, 3, 4})
	f.Add(int64(2), []byte{2, 1, 0, 0, 5, 5, 1, 2, 9, 2, 0, 7})
	f.Add(int64(3), []byte{4, 2, 3, 3, 1, 1, 0, 8, 8, 1, 9, 9, 2, 2, 2})
	f.Add(int64(4), []byte{6, 0, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, seed int64, ops []byte) {
		if len(ops) == 0 || len(ops) > 96 {
			t.Skip()
		}
		algo := fuzzAlgos[int(ops[0])%len(fuzzAlgos)]
		const capacity, d, k = 6, 2, 1
		r := rand.New(rand.NewSource(seed))
		pts := randPoints(r, 3, d, k)
		cfg := diffConfig(algo, capacity, d)
		newEngine := func() (*Engine, *machine.M) {
			m := machine.New(hypercube.MustNew(PEs("hypercube", algo, capacity, k)))
			e, err := New(m, cfg, pts)
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			return e, m
		}
		e, m := newEngine()
		twin, twinM := newEngine()
		// Slice the remaining bytes into batches of up to 4 deltas.
		body := ops[1:]
		for len(body) >= 3 {
			nb := 1 + int(body[0])%4
			var batch []Delta
			for i := 0; i < nb && len(body) >= 3; i++ {
				batch = append(batch, fuzzDelta(body[0], body[1], body[2], d, k))
				body = body[3:]
			}
			before := m.Stats()
			ins, st, err := e.Apply(batch)
			cost := m.Stats().Sub(before)
			var twinIns []int
			var twinSt ApplyStats
			var twinCost machine.Stats
			if err != nil {
				// Expected rejections: model violations and capacity.
				if !errors.Is(err, motion.ErrBadSystem) && !errors.Is(err, machine.ErrTooFewPEs) {
					t.Fatalf("Apply failed outside the validation contract: %v", err)
				}
			} else {
				twinBefore := twinM.Stats()
				twinIns, twinSt, err = twin.Apply(batch)
				if err != nil {
					t.Fatalf("twin rejected a batch the engine accepted: %v", err)
				}
				twinCost = twinM.Stats().Sub(twinBefore)
			}
			if !reflect.DeepEqual(ins, twinIns) || st != twinSt || cost != twinCost {
				t.Fatalf("engine and twin diverged: inserted %v/%v, stats %+v/%+v, cost %+v/%+v",
					ins, twinIns, st, twinSt, cost, twinCost)
			}
			if !reflect.DeepEqual(e.Points(), twin.Points()) {
				t.Fatalf("live IDs diverged: %v, twin %v", e.Points(), twin.Points())
			}
			if !reflect.DeepEqual(e.Result(), twin.Result()) {
				t.Fatalf("result diverged from the twin\n got: %+v\nwant: %+v", e.Result(), twin.Result())
			}
			if err == nil {
				auditEngine(t, e, cost, "fuzzed batch")
			}
		}
	})
}
