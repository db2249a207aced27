package main

import (
	"strings"
	"testing"
)

func res(name string, ns, b, allocs float64) Result {
	return Result{Name: name, NsOp: ns, BytesOp: b, AllocsOp: allocs}
}

func TestParseBenchOutput(t *testing.T) {
	in := strings.NewReader(`goos: linux
goarch: amd64
pkg: dyncg
BenchmarkPerf/scan/mesh/n=256-8         	     100	     12345 ns/op	       0 B/op	       0 allocs/op
BenchmarkPerfLargeN/scan/hypercube/n=1048576-16 	      20	 232739023 ns/op	       0 B/op	       0 allocs/op
BenchmarkNoMem-4	100	99 ns/op
BenchmarkServerThroughput/dup=50-8 	   12000	     83000 ns/op	     12048 req/s
PASS
`)
	got, err := parse(in)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 {
		t.Fatalf("parsed %d results, want 4", len(got))
	}
	// Sorted by name; the -N GOMAXPROCS suffix must be stripped so
	// baselines compare across machines with different core counts.
	if got[0].Name != "BenchmarkNoMem" || got[0].NsOp != 99 {
		t.Errorf("got[0] = %+v", got[0])
	}
	if got[0].AllocsOp != -1 || got[0].BytesOp != -1 {
		t.Errorf("benchmark without -benchmem should record -1 sentinels, got %+v", got[0])
	}
	if got[1].Name != "BenchmarkPerf/scan/mesh/n=256" {
		t.Errorf("got[1].Name = %q", got[1].Name)
	}
	if got[2].Name != "BenchmarkPerfLargeN/scan/hypercube/n=1048576" || got[2].NsOp != 232739023 {
		t.Errorf("got[2] = %+v", got[2])
	}
	if got[3].Name != "BenchmarkServerThroughput/dup=50" || got[3].ReqS != 12048 {
		t.Errorf("got[3] = %+v (want req/s metric parsed)", got[3])
	}
	if got[0].ReqS != 0 || got[1].ReqS != 0 {
		t.Errorf("rows without a throughput metric should record ReqS 0: %+v, %+v", got[0], got[1])
	}
}

func TestGateNewRowPasses(t *testing.T) {
	// A benchmark missing from the committed baseline must pass the gate:
	// adding a row (e.g. a new large-n size) cannot break CI before the
	// row is pinned by the next scripts/bench.sh refresh.
	base := Baseline{Benchmarks: []Result{res("BenchmarkPerf/old", 100, 0, 0)}}
	cur := []Result{
		res("BenchmarkPerf/old", 100, 0, 0),
		res("BenchmarkPerfLargeN/brand-new/n=1048576", 1e9, 4096, 200),
	}
	if !gate(base, cur) {
		t.Error("gate failed on a new, not-yet-pinned benchmark row")
	}
}

func TestGateMissingRowFails(t *testing.T) {
	base := Baseline{Benchmarks: []Result{
		res("BenchmarkPerf/kept", 100, 0, 0),
		res("BenchmarkPerf/dropped", 100, 0, 0),
	}}
	cur := []Result{res("BenchmarkPerf/kept", 100, 0, 0)}
	if gate(base, cur) {
		t.Error("gate passed despite a baseline benchmark missing from the run")
	}
}

func TestGateTolerances(t *testing.T) {
	cases := []struct {
		name string
		old  Result
		now  Result
		ok   bool
	}{
		{"allocs-within", res("b", 100, 100, 10), res("b", 100, 100, 14), true},
		{"allocs-over", res("b", 100, 100, 10), res("b", 100, 100, 15), false},
		{"allocs-zero-slack", res("b", 100, 0, 0), res("b", 100, 0, 2), true},
		{"allocs-zero-over", res("b", 100, 0, 0), res("b", 100, 0, 3), false},
		{"bytes-within", res("b", 100, 1000, 0), res("b", 100, 2012, 0), true},
		{"bytes-over", res("b", 100, 1000, 0), res("b", 100, 2013, 0), false},
		{"ns-noise-ok", res("b", 100, 0, 0), res("b", 600, 0, 0), true},
		{"ns-catastrophic", res("b", 100, 0, 0), res("b", 601, 0, 0), false},
		{"no-benchmem-skips-mem-gates", res("b", 100, -1, -1), res("b", 100, 1e9, 1e9), true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			base := Baseline{Benchmarks: []Result{tc.old}}
			if got := gate(base, []Result{tc.now}); got != tc.ok {
				t.Errorf("gate(old=%+v, now=%+v) = %v, want %v", tc.old, tc.now, got, tc.ok)
			}
		})
	}
}

// TestGateThroughputDirection: req/s is higher-is-better — the gate
// must fire on collapses, not on gains, and skip rows without the
// metric.
func TestGateThroughputDirection(t *testing.T) {
	reqs := func(name string, ns, rs float64) Result {
		return Result{Name: name, NsOp: ns, BytesOp: -1, AllocsOp: -1, ReqS: rs}
	}
	cases := []struct {
		name string
		old  Result
		now  Result
		ok   bool
	}{
		{"reqs-noise-ok", reqs("t", 100, 6000), reqs("t", 100, 1001), true},
		{"reqs-collapse", reqs("t", 100, 6000), reqs("t", 100, 999), false},
		{"reqs-gain-ok", reqs("t", 100, 6000), reqs("t", 100, 60000), true},
		{"reqs-absent-in-baseline", reqs("t", 100, 0), reqs("t", 100, 1), true},
		{"reqs-lost-metric", reqs("t", 100, 6000), reqs("t", 100, 0), false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			base := Baseline{Benchmarks: []Result{tc.old}}
			if got := gate(base, []Result{tc.now}); got != tc.ok {
				t.Errorf("gate(old=%+v, now=%+v) = %v, want %v", tc.old, tc.now, got, tc.ok)
			}
		})
	}
}
