// Pinned host-performance benchmarks for batch-dynamic sessions: the
// wall-clock cost of applying a delta batch against the retained merge
// tree, versus rebuilding the answer from scratch on the same machine.
// The suite measures, but does not gate, how a batch compares with the
// rebuild. A batch redoes only the dirty root paths of the tree, yet on
// the pins in BENCH_perf.json it is the slower one: batch=16 reads
// 167 520 ns/op against 88 771 ns/op for rebuild-churned (see ROADMAP,
// item 1). cmd/benchgate checks each row against its own pin only,
// never one row against another.
//
// Like bench_perf_test.go, the suite runs under scripts/bench.sh with a
// pinned iteration count and is baselined in BENCH_perf.json.
package dyncg_test

import (
	"fmt"
	"testing"

	"dyncg"
)

// sessionBenchSize is both the live population and the session capacity:
// the bench measures retarget churn at a full machine, the steady state
// of a long-lived tracking scenario.
const sessionBenchSize = 64

func newBenchSession(b *testing.B) *dyncg.Session {
	b.Helper()
	pts := make([]dyncg.Point, sessionBenchSize)
	for i := range pts {
		pts[i] = benchTrajectory(i, 0)
	}
	sys, err := dyncg.NewSystem(pts)
	if err != nil {
		b.Fatal(err)
	}
	pes, err := dyncg.SessionPEs(dyncg.Hypercube, dyncg.SessionClosestPointSeq, sessionBenchSize, 1)
	if err != nil {
		b.Fatal(err)
	}
	m, err := dyncg.NewMachine(dyncg.Hypercube, pes)
	if err != nil {
		b.Fatal(err)
	}
	s, err := dyncg.NewSession(m, dyncg.SessionConfig{
		Algorithm: dyncg.SessionClosestPointSeq,
		Capacity:  sessionBenchSize,
	}, sys)
	if err != nil {
		b.Fatal(err)
	}
	return s
}

// benchTrajectory builds a deterministic degree-1 trajectory for a
// stable ID at a churn round. Initial positions are distinct across IDs
// for every round (the x-coordinate is dominated by 1000·id), so any
// mix of retargets keeps the population valid.
func benchTrajectory(id, round int) dyncg.Point {
	return dyncg.NewPoint(
		dyncg.Polynomial(1000*float64(id)+float64(round%7), 1+float64(round%3)),
		dyncg.Polynomial(float64(round%11), -1),
	)
}

// applyChurn applies churn round i: retargets of the len(deltas) IDs
// that follow the previous round's.
func applyChurn(b *testing.B, s *dyncg.Session, deltas []dyncg.SessionDelta, i int) {
	for j := range deltas {
		id := (i*len(deltas) + j) % sessionBenchSize
		deltas[j] = dyncg.RetargetPoint(id, benchTrajectory(id, i+1))
	}
	if _, _, err := s.Apply(deltas...); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkSessionUpdate measures one applied batch of k retargets
// (k = 1, 16, 64 of the 64 live points) and, as the baselines it should
// beat, the from-scratch rebuild of the same answer on the same machine.
// The rebuild row rebuilds the unchurned first population, whose
// envelope is simpler than the batch rows'; rebuild-churned first
// applies 200 batch=16 rounds, the population the batch rows retarget.
func BenchmarkSessionUpdate(b *testing.B) {
	for _, batch := range []int{1, 16, 64} {
		b.Run(fmt.Sprintf("batch=%d", batch), func(b *testing.B) {
			s := newBenchSession(b)
			deltas := make([]dyncg.SessionDelta, batch)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				applyChurn(b, s, deltas, i)
			}
		})
	}
	for _, churn := range []int{0, 200} {
		name := "rebuild"
		if churn > 0 {
			name = "rebuild-churned"
		}
		b.Run(name, func(b *testing.B) {
			s := newBenchSession(b)
			deltas := make([]dyncg.SessionDelta, 16)
			for i := 0; i < churn; i++ {
				applyChurn(b, s, deltas, i)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.Rebuild(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
