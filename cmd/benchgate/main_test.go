package main

import (
	"encoding/json"
	"runtime"
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
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkPerf/scan/mesh/n=256-8         	     100	     12345 ns/op	       0 B/op	       0 allocs/op
BenchmarkPerfLargeN/scan/hypercube/n=1048576-16 	      20	 232739023 ns/op	       0 B/op	       0 allocs/op
BenchmarkNoMem-4	100	99 ns/op
BenchmarkServerThroughput/dup=50-8 	   12000	     83000 ns/op	     12048 req/s
PASS
`)
	got, cpu, err := parse(in)
	if err != nil {
		t.Fatal(err)
	}
	if cpu != "Intel(R) Xeon(R) Processor @ 2.10GHz" {
		t.Errorf("cpu = %q", cpu)
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

// TestParseFoldsRepeatedRuns: the lines of a benchmark run with -count 3
// fold into one row of medians with the ns/op spread, instead of the
// last line silently replacing the others; a single-run row carries no
// spread fields.
func TestParseFoldsRepeatedRuns(t *testing.T) {
	in := strings.NewReader(`BenchmarkServer/warm-2 	100	900 ns/op	5000 B/op	20 allocs/op
BenchmarkServer/warm-2 	100	700 ns/op	5100 B/op	21 allocs/op
BenchmarkPerf/scan/mesh/n=256-2 	100	10 ns/op	0 B/op	0 allocs/op
BenchmarkServer/warm-2 	100	1300 ns/op	4900 B/op	20 allocs/op
BenchmarkServerThroughput/dup=0-2 	500	1 ns/op	300 req/s
BenchmarkServerThroughput/dup=0-2 	500	1 ns/op	100 req/s
`)
	got, _, err := parse(in)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("parsed %d rows, want 3 (repeats folded): %+v", len(got), got)
	}
	scan, warm, tp := got[0], got[1], got[2]
	if scan.Runs != 0 || scan.NsMin != 0 || scan.NsMax != 0 || scan.NsOp != 10 {
		t.Errorf("single-run row = %+v, want no spread fields", scan)
	}
	want := Result{Name: "BenchmarkServer/warm", NsOp: 900, NsMin: 700, NsMax: 1300, Runs: 3, BytesOp: 5000, AllocsOp: 20}
	if warm != want {
		t.Errorf("folded row = %+v, want %+v", warm, want)
	}
	if tp.Runs != 2 || tp.ReqS != 200 || tp.AllocsOp != -1 {
		t.Errorf("two-run throughput row = %+v, want req/s median 200 over 2 runs", tp)
	}
	data, err := json.Marshal(scan)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(data), "ns_min") || strings.Contains(string(data), "runs") {
		t.Errorf("single-run row marshals spread fields: %s", data)
	}
}

// TestHostFacts: -out records the host, and a baseline written before
// the host field existed still loads and reports it as not recorded.
func TestHostFacts(t *testing.T) {
	h := currentHost("Some CPU")
	if h.NumCPU != runtime.NumCPU() || h.GOMAXPROCS != runtime.GOMAXPROCS(0) ||
		h.GOOS != runtime.GOOS || h.GOARCH != runtime.GOARCH || h.CPU != "Some CPU" {
		t.Fatalf("currentHost = %+v", h)
	}
	data, err := json.Marshal(Baseline{Benchtime: "100x", Host: h})
	if err != nil {
		t.Fatal(err)
	}
	var pinned Baseline
	if err := json.Unmarshal(data, &pinned); err != nil {
		t.Fatal(err)
	}
	if pinned.Host == nil || *pinned.Host != *h {
		t.Fatalf("host did not round-trip: %+v", pinned.Host)
	}
	if got := pinned.Host.String(); !strings.Contains(got, "GOMAXPROCS=") || !strings.Contains(got, "cpu=Some CPU") {
		t.Errorf("String() = %q", got)
	}

	var old Baseline
	if err := json.Unmarshal([]byte(`{"note":"","benchtime":"100x","benchmarks":[]}`), &old); err != nil {
		t.Fatal(err)
	}
	if old.Host != nil || old.Host.String() != "not recorded" {
		t.Errorf("baseline without host: %+v, %q", old.Host, old.Host.String())
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
		// A stale pin far above the measurement fails with a re-pin
		// message: (old−2)/1.25 mirrors the old·1.25+2 ceiling.
		{"allocs-below-within", res("b", 100, 100, 91), res("b", 100, 100, 72), true},
		{"allocs-far-below", res("b", 100, 100, 91), res("b", 100, 100, 35), false},
		{"allocs-small-pin-slack", res("b", 100, 0, 2), res("b", 100, 0, 0), true},
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
