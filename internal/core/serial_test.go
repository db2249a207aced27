package core

import (
	"math"
	"math/rand"
	"testing"

	"dyncg/internal/motion"
)

func sameIntervals(t *testing.T, got, want []Interval, label string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d intervals, want %d\n got %v\nwant %v",
			label, len(got), len(want), got, want)
	}
	for i := range got {
		if math.Abs(got[i].Lo-want[i].Lo) > 1e-7*(1+math.Abs(want[i].Lo)) {
			t.Fatalf("%s: interval %d Lo %v vs %v", label, i, got[i].Lo, want[i].Lo)
		}
		if math.IsInf(want[i].Hi, 1) != math.IsInf(got[i].Hi, 1) {
			t.Fatalf("%s: interval %d Hi %v vs %v", label, i, got[i].Hi, want[i].Hi)
		}
		if !math.IsInf(want[i].Hi, 1) &&
			math.Abs(got[i].Hi-want[i].Hi) > 1e-7*(1+math.Abs(want[i].Hi)) {
			t.Fatalf("%s: interval %d Hi %v vs %v", label, i, got[i].Hi, want[i].Hi)
		}
	}
}

// TestSerialBaselinesMatchMachine: the serial §4 baselines and the
// machine algorithms produce identical answers (they share the window
// combiners, so differences would indicate a bug in the machine pass).
func TestSerialBaselinesMatchMachine(t *testing.T) {
	r := rand.New(rand.NewSource(141))
	for trial := 0; trial < 12; trial++ {
		n := 3 + r.Intn(8)
		k := 1 + r.Intn(2)
		sys := motion.Random(r, n, k, 2, 5)

		// Theorem 4.5.
		m := cubeFor(n, 4*k+2)
		gotHull, err := HullVertexIntervals(m, sys, 0)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		wantHull, err := SerialHullVertexIntervals(sys, 0)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		sameIntervals(t, gotHull, wantHull, "hull membership")

		// Theorem 4.6.
		dims := []float64{4 + r.Float64()*8, 4 + r.Float64()*8}
		m2 := cubeFor(n, k+2)
		gotC, err := ContainmentIntervals(m2, sys, dims)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		wantC, err := SerialContainmentIntervals(sys, dims)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		sameIntervals(t, gotC, wantC, "containment")

		// Theorem 4.7: compare the span functions pointwise.
		m3 := cubeFor(n, k+2)
		gotD, err := SmallestHypercubeEdge(m3, sys)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		wantD, err := SerialSmallestHypercubeEdge(sys)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for s := 0; s < 40; s++ {
			tm := float64(s)*0.27 + 0.009
			gv, gok := gotD.Eval(tm)
			wv, wok := wantD.Eval(tm)
			if gok != wok || math.Abs(gv-wv) > 1e-6*(1+math.Abs(wv)) {
				t.Fatalf("trial %d: D(%v) machine %v vs serial %v", trial, tm, gv, wv)
			}
		}
	}
}
