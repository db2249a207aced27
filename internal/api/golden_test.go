package api

import (
	"bytes"
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden schema files")

// golden marshals v with indentation and compares it byte-for-byte to
// the committed golden file — the guard that pins the v1 wire schema.
// Any field rename, tag change, or type change shows up as a diff here
// (and requires a deliberate -update plus a version discussion), not as
// a silent protocol break.
func golden(t *testing.T, name string, v any) {
	t.Helper()
	got, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s drifted from the pinned v1 schema:\n--- got ---\n%s--- want ---\n%s", name, got, want)
	}
}

func TestGoldenRequest(t *testing.T) {
	golden(t, "v1_request.json", Request{
		V: Version,
		System: [][][]float64{
			{{0}, {0}},
			{{1, 2}, {0}},
			{{0}, {20, -1}},
		},
		Origin: 0,
		Dims:   []float64{10, 10},
		Options: Options{
			Topology:   "hypercube",
			PEs:        64,
			Workers:    2,
			Faults:     "transient=0.05,retries=3",
			FaultSeed:  7,
			Trace:      true,
			CostDepth:  3,
			DeadlineMs: 2000,
		},
	})
}

func TestGoldenResponse(t *testing.T) {
	golden(t, "v1_response.json", Response{
		V:         Version,
		Algorithm: "closest-point-sequence",
		Machine:   MachineInfo{Topology: "hypercube", PEs: 64, Workers: 2},
		Stats:     Stats{Time: 321, CommSteps: 120, LocalSteps: 201, Rounds: 60, Messages: 1800},
		Pool:      PoolInfo{Hit: true},
		Fault:     &FaultReport{Attempts: 2, Transients: 3, RetryRounds: 5, Failed: []int{9}},
		CostTree:  "thm4.1 …",
		Result: []NeighborEvent{
			{Point: 1, Lo: 0, Hi: Time(19.0 / 3)},
			{Point: 2, Lo: Time(19.0 / 3), Hi: Time(math.Inf(1))},
		},
	})
}

func TestGoldenError(t *testing.T) {
	golden(t, "v1_error.json", []Error{
		*NewError(CodeBadSystem, "motion: invalid system of moving points"),
		*NewError(CodeQueueFull, "server: request not admitted: queue_full"),
		{
			V: Version, Code: CodeMemberDown,
			Message: `fleet: member "m1" owning session "s-m1-3-aabbccdd" is down`,
			Member:  "m1",
		},
	})
}

func TestErrorCodeRetryable(t *testing.T) {
	// The load-shaped admission codes are retryable; request- and
	// state-shaped codes are not. A spot check on both sides keeps the
	// classification a deliberate decision.
	for _, c := range []ErrorCode{CodeQueueFull, CodeDraining, CodeDeadlineQueued,
		CodeDeadlineExceeded, CodeCoalesceTimeout, CodeTooManySessions, CodeNoMembers} {
		if !c.Retryable() {
			t.Errorf("%s must be retryable", c)
		}
	}
	for _, c := range []ErrorCode{CodeBadRequest, CodeBadVersion, CodeBadSystem,
		CodeTooFewPEs, CodeNoSession, CodeMemberDown, CodeInternal} {
		if c.Retryable() {
			t.Errorf("%s must not be retryable", c)
		}
	}
	if e := NewError(CodeQueueFull, "x"); !e.Retryable {
		t.Error("NewError dropped Retryable for queue_full")
	}
}

func TestGoldenCluster(t *testing.T) {
	golden(t, "v1_cluster.json", ClusterResponse{
		V:    Version,
		Mode: "fleet",
		Members: []ClusterMember{
			{ID: "m0", URL: "http://127.0.0.1:9101", Healthy: true,
				Inflight: 2, QueueDepth: 1, IdlePEs: 4096, Sessions: 3},
			{ID: "m1", URL: "http://127.0.0.1:9102", Healthy: false},
		},
		Probe: &ClusterProbe{Key: "s-m0-7-0a1b2c3d", Member: "m0"},
	})
}

func TestGoldenBenchRecord(t *testing.T) {
	// The BENCH_tables.json record written by cmd/tables -json; its
	// shape is shared with (and pinned alongside) the server schema.
	golden(t, "bench_record.json", []BenchRecord{{
		Table: "table2", ID: "closest-seq", Problem: "closest-point sequence",
		Topology: "mesh", N: 256, SimTime: 1234,
		Claim: "Θ(λ^½(n−1,2k)) / Θ(log² n)", Bound: 64.0, Ratio: 19.28,
	}})
}

func TestGoldenResultPayloads(t *testing.T) {
	// One instance of every algorithm-specific result payload, in one
	// pinned file, so adding or renaming a payload field is a visible
	// schema change.
	golden(t, "v1_results.json", map[string]any{
		"closest-point-sequence":  []NeighborEvent{{Point: 1, Lo: 0, Hi: Time(math.Inf(1))}},
		"collision-times":         []Collision{{T: 1.5, A: 0, B: 3}},
		"hull-vertex-intervals":   []Interval{{Lo: 0, Hi: 2.5}},
		"containment-intervals":   []Interval{{Lo: 1, Hi: Time(math.Inf(1))}},
		"smallest-hypercube-edge": []Piece{{F: "20 - t", ID: 2, Lo: 0, Hi: 5}},
		"smallest-ever-hypercube": MinCube{D: 3.25, T: 1.75},
		"steady-nearest-neighbor": Neighbor{Point: 4},
		"steady-closest-pair":     Pair{A: 1, B: 2},
		"steady-hull":             Hull{Vertices: []int{0, 3, 5}},
		"steady-farthest-pair":    FarthestPair{A: 0, B: 7, Dist2: []float64{4, 0, 1}},
		"steady-min-area-rect":    Rect{Edge: 2, Area: "(4t² + 1)/(1)"},
		"closest-pair-sequence":   []PairEvent{{A: 0, B: 1, Lo: 0, Hi: Time(math.Inf(1))}},
	})
}

func TestTimeRoundTrip(t *testing.T) {
	for _, v := range []float64{0, 1.5, -2.25, 19.0 / 3, math.Inf(1), math.Inf(-1)} {
		b, err := json.Marshal(Time(v))
		if err != nil {
			t.Fatal(err)
		}
		var got Time
		if err := json.Unmarshal(b, &got); err != nil {
			t.Fatal(err)
		}
		if float64(got) != v {
			t.Errorf("Time %v round-tripped to %v via %s", v, got, b)
		}
	}
	if _, err := json.Marshal(Time(math.NaN())); err == nil {
		t.Error("NaN time marshalled without error")
	}
}
