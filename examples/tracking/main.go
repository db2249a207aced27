// Long-horizon tracking on the streaming API: the surveillance
// motivation of §1 (a sensor network tracking a cloud of targets) as a
// batch-dynamic scenario session. Instead of re-sending the whole
// picture every time it changes, the session keeps the targets and their
// distance curves resident and each scan streams a delta batch — new
// contacts appear, stale tracks drop, course changes retarget — that
// rewrites only the dirty leaves before one Theorem 3.2 envelope pass
// answers it.
//
// Every scan's maintained closest-target sequence is bit-identical to a
// from-scratch rebuild on the same machine (the session contract); the
// example audits one scan against Session.Rebuild and reports the leaves
// each batch rewrote and the block merges its envelope pass ran.
//
// The epilogue asks a §5 steady-state question of the final picture —
// which surviving targets form the eventual convex hull (Proposition
// 5.4) — showing the one-shot and streaming surfaces side by side.
//
// Run: go run ./examples/tracking
package main

import (
	"fmt"
	"math/rand"
	"reflect"

	"dyncg"
)

const capacity = 32 // max live targets over the session's lifetime

func main() {
	r := rand.New(rand.NewSource(5))

	// Initial picture: the sensor (target 0, stationary at the origin)
	// plus a dozen contacts radiating outward with distinct headings.
	targets := []dyncg.Point{
		dyncg.NewPoint(dyncg.Polynomial(0), dyncg.Polynomial(0)),
	}
	n := 12
	for i := 0; i < n; i++ {
		targets = append(targets, contact(r, i, n))
	}
	sys, err := dyncg.NewSystem(targets)
	if err != nil {
		panic(err)
	}

	// One machine, sized once for the session's whole lifetime, then
	// pinned: λ-envelope capacity for 32 targets of degree sys.K.
	pes, err := dyncg.SessionPEs(dyncg.Hypercube, dyncg.SessionClosestPointSeq, capacity, sys.K)
	if err != nil {
		panic(err)
	}
	m, err := dyncg.NewMachine(dyncg.Hypercube, pes)
	if err != nil {
		panic(err)
	}
	s, err := dyncg.NewSession(m, dyncg.SessionConfig{
		Algorithm: dyncg.SessionClosestPointSeq,
		Origin:    0,
		Capacity:  capacity,
	}, sys)
	if err != nil {
		panic(err)
	}
	fmt.Printf("tracking session: %d contacts on a %d-PE hypercube (capacity %d)\n\n",
		sys.N()-1, pes, capacity)
	report(s)

	// Scan 1: two new contacts appear, one track goes stale.
	ids, stats, err := s.Apply(
		dyncg.InsertPoint(contact(r, n, n)),
		dyncg.InsertPoint(contact(r, n+1, n)),
		dyncg.DeletePoint(3),
	)
	if err != nil {
		panic(err)
	}
	fmt.Printf("scan 1: +2 contacts (ids %v), -1 stale track — %d dirty leaves, %d block merges\n",
		ids, stats.DirtyLeaves, stats.MergedNodes)
	report(s)

	// Scan 2: a course change — contact 5 turns toward the sensor.
	_, stats, err = s.Apply(dyncg.RetargetPoint(5,
		dyncg.NewPoint(dyncg.Polynomial(8, -1), dyncg.Polynomial(6, -0.75))))
	if err != nil {
		panic(err)
	}
	fmt.Printf("scan 2: contact 5 turns inbound — %d dirty leaves, %d block merges\n",
		stats.DirtyLeaves, stats.MergedNodes)
	report(s)

	// Audit the session contract: the maintained answer must be
	// bit-identical to a from-scratch rebuild on the same machine.
	rebuilt, err := s.Rebuild()
	if err != nil {
		panic(err)
	}
	if !reflect.DeepEqual(s.Result(), rebuilt) {
		panic("maintained result diverged from from-scratch rebuild")
	}
	fmt.Printf("audit: maintained sequence bit-identical to a from-scratch rebuild (%d batches applied)\n\n",
		s.Updates())

	// Epilogue (§5): which surviving targets form the eventual hull of
	// the final picture (Proposition 5.4), via the one-shot surface.
	var finalPts []dyncg.Point
	live := s.Points()
	for _, id := range live {
		p, _ := s.Point(id)
		finalPts = append(finalPts, p)
	}
	finalSys, err := dyncg.NewSystem(finalPts)
	if err != nil {
		panic(err)
	}
	hm, err := dyncg.NewMachine(dyncg.Hypercube, 8*finalSys.N())
	if err != nil {
		panic(err)
	}
	hull, err := dyncg.SteadyHull(hm, finalSys)
	if err != nil {
		panic(err)
	}
	ids = make([]int, len(hull))
	for i, h := range hull {
		ids[i] = live[h]
	}
	fmt.Printf("eventual hull of the final picture (Proposition 5.4): targets %v\n", ids)
}

// contact builds the i-th radiating contact: distinct heading around the
// circle, random launch point near the sensor.
func contact(r *rand.Rand, i, n int) dyncg.Point {
	u := 2*float64(i%n)/float64(n) - 1 + 0.01*float64(i/n)
	den := 1 + u*u
	vx, vy := (1-u*u)/den, 2*u/den
	return dyncg.NewPoint(
		dyncg.Polynomial(r.Float64()*4-2, vx*(1+r.Float64())),
		dyncg.Polynomial(r.Float64()*4-2, vy*(1+r.Float64())),
	)
}

// report prints the maintained closest-target sequence: who is nearest
// the sensor on which time interval (Theorem 4.1, kept current by the
// session instead of recomputed).
func report(s *dyncg.Session) {
	for _, ev := range s.Result().Neighbors {
		fmt.Printf("  closest on [%g, %g): target %d\n", ev.Lo, ev.Hi, ev.Point)
	}
	fmt.Println()
}
