// Command benchgate converts `go test -bench -benchmem` output into the
// committed BENCH_perf.json baseline and gates changes against it — the
// regression half of the continuous benchmark harness driven by
// scripts/bench.sh.
//
// Modes (both read benchmark output on stdin):
//
//	benchgate -out BENCH_perf.json     # parse and (re)write the baseline
//	benchgate -check BENCH_perf.json   # compare against the baseline
//
// Gate tolerances. The three measurements regress in very different ways,
// so each has its own gate, loosest where the noise is largest:
//
//   - allocs/op is deterministic for a fixed iteration count (the suite
//     pins -benchtime 100x), so the gate is tight: FAIL when
//     new > old·1.25 + 2. The +2 absorbs once-per-run warmup amortised
//     over the fixed iterations; the factor flags any real reintroduction
//     of per-call allocation. The same band bounds it from below: FAIL
//     with a re-pin message when new < (old − 2)/1.25, so a pin that an
//     allocation cut left far above the measurement cannot later absorb
//     a regression back up to it.
//
//   - B/op is nearly deterministic but rounding and map growth wobble it:
//     FAIL when new > old·1.5 + 512.
//
//   - ns/op is host- and load-dependent — shared CI runners routinely
//     swing ±3× — so the gate only catches catastrophic regressions:
//     FAIL when new > old·6. Trend tracking for real wall-clock work
//     belongs on a quiet machine with the committed baseline refreshed
//     deliberately (scripts/bench.sh with no flag).
//
//   - req/s (the saturation throughput rows reported by
//     BenchmarkServerThroughput via b.ReportMetric) is higher-is-better
//     and as host-dependent as ns/op, so its gate mirrors the
//     catastrophic one in the opposite direction: FAIL when
//     new < old/6.
//
// Repeated runs. scripts/bench.sh runs its first invocation with
// -count 3, so one benchmark may appear on several lines. parse folds
// them into one row holding the median of each measurement, and records
// the spread of ns/op as its minimum and maximum (ns_min, ns_max) and
// the number of runs next to it, so a wall-clock difference can be read
// against the run-to-run noise. Single-run rows carry no spread fields.
//
// A benchmark present in the baseline but missing from stdin fails the
// gate (a silently dropped benchmark would hide any regression); new
// benchmarks not yet in the baseline are reported and pass.
//
// Host facts. -out records the host the rows were measured on (NumCPU,
// GOMAXPROCS, GOOS/GOARCH and the CPU model from the `cpu:` header of
// the benchmark output) in the baseline's "host" object; -check prints
// the pinned facts next to the current ones, so a wall-clock delta can
// be read against a change of machine. Baselines written before the
// field existed are accepted and reported as "not recorded".
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// Result is one benchmark's measurements. AllocsOp and BytesOp are −1
// when the benchmark did not report memory statistics; ReqS is 0 when
// the benchmark did not report a throughput metric. A row folded from
// several runs holds the medians, with Runs and the ns/op spread set.
type Result struct {
	Name     string  `json:"name"`
	NsOp     float64 `json:"ns_op"`
	NsMin    float64 `json:"ns_min,omitempty"`
	NsMax    float64 `json:"ns_max,omitempty"`
	Runs     int     `json:"runs,omitempty"`
	BytesOp  float64 `json:"b_op"`
	AllocsOp float64 `json:"allocs_op"`
	ReqS     float64 `json:"req_s,omitempty"`
}

// Host is the machine a baseline was measured on.
type Host struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	CPU        string `json:"cpu,omitempty"`
}

// Baseline is the committed BENCH_perf.json schema.
type Baseline struct {
	Note       string   `json:"note"`
	Benchtime  string   `json:"benchtime"`
	Host       *Host    `json:"host,omitempty"`
	Benchmarks []Result `json:"benchmarks"`
}

// currentHost describes this process's host; cpu is the model string
// from the benchmark output's `cpu:` header.
func currentHost(cpu string) *Host {
	return &Host{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		CPU:        cpu,
	}
}

// String renders the host facts on one line; a nil host is one the
// baseline did not record.
func (h *Host) String() string {
	if h == nil {
		return "not recorded"
	}
	s := fmt.Sprintf("NumCPU=%d GOMAXPROCS=%d %s/%s", h.NumCPU, h.GOMAXPROCS, h.GOOS, h.GOARCH)
	if h.CPU != "" {
		s += " cpu=" + h.CPU
	}
	return s
}

func main() {
	outPath := flag.String("out", "", "write parsed results as a baseline JSON file")
	checkPath := flag.String("check", "", "compare parsed results against this baseline JSON file")
	benchtime := flag.String("benchtime", "100x", "benchtime the suite was run with (recorded in the baseline)")
	flag.Parse()
	if (*outPath == "") == (*checkPath == "") {
		fmt.Fprintln(os.Stderr, "benchgate: exactly one of -out or -check is required")
		os.Exit(2)
	}

	results, cpu, err := parse(os.Stdin)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
		os.Exit(2)
	}
	if len(results) == 0 {
		fmt.Fprintln(os.Stderr, "benchgate: no benchmark lines on stdin")
		os.Exit(2)
	}

	if *outPath != "" {
		b := Baseline{
			Note:       "Pinned perf baseline for BenchmarkPerf*/; regenerate with scripts/bench.sh, gate with scripts/bench.sh -check.",
			Benchtime:  *benchtime,
			Host:       currentHost(cpu),
			Benchmarks: results,
		}
		data, err := json.MarshalIndent(b, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
			os.Exit(2)
		}
		if err := os.WriteFile(*outPath, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
			os.Exit(2)
		}
		fmt.Printf("benchgate: wrote %d benchmarks to %s\n", len(results), *outPath)
		return
	}

	data, err := os.ReadFile(*checkPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
		os.Exit(2)
	}
	var base Baseline
	if err := json.Unmarshal(data, &base); err != nil {
		fmt.Fprintf(os.Stderr, "benchgate: %s: %v\n", *checkPath, err)
		os.Exit(2)
	}
	fmt.Printf("benchgate: pinned host: %v\n", base.Host)
	fmt.Printf("benchgate: this host:   %v\n", currentHost(cpu))
	if gate(base, results) {
		fmt.Println("benchgate: OK")
		return
	}
	os.Exit(1)
}

// parse extracts Benchmark lines from `go test -bench` output, plus the
// CPU model of the first `cpu:` header. The trailing -N GOMAXPROCS
// suffix is stripped so baselines compare across machines with
// different core counts, and repeated lines of one benchmark are folded
// into one row (see fold).
func parse(f io.Reader) (out []Result, cpu string, err error) {
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if m, ok := strings.CutPrefix(line, "cpu:"); ok && cpu == "" {
			cpu = strings.TrimSpace(m)
			continue
		}
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 4 {
			continue
		}
		name := fields[0]
		if i := strings.LastIndex(name, "-"); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		r := Result{Name: name, BytesOp: -1, AllocsOp: -1}
		// fields[1] is the iteration count; the rest are "value unit" pairs.
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, "", fmt.Errorf("bad value %q in %q", fields[i], line)
			}
			switch fields[i+1] {
			case "ns/op":
				r.NsOp = v
			case "B/op":
				r.BytesOp = v
			case "allocs/op":
				r.AllocsOp = v
			case "req/s":
				r.ReqS = v
			}
		}
		out = append(out, r)
	}
	if err := sc.Err(); err != nil {
		return nil, "", err
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	folded := out[:0]
	for i := 0; i < len(out); {
		j := i + 1
		for j < len(out) && out[j].Name == out[i].Name {
			j++
		}
		folded = append(folded, fold(out[i:j]))
		i = j
	}
	return folded, cpu, nil
}

// fold merges the runs of one benchmark into a row of per-measurement
// medians; with more than one run it records the run count and the
// ns/op minimum and maximum.
func fold(runs []Result) Result {
	if len(runs) == 1 {
		return runs[0]
	}
	pick := func(get func(Result) float64) (med, lo, hi float64) {
		vs := make([]float64, len(runs))
		for i, r := range runs {
			vs[i] = get(r)
		}
		sort.Float64s(vs)
		k := len(vs) / 2
		med = vs[k]
		if len(vs)%2 == 0 {
			med = (vs[k-1] + vs[k]) / 2
		}
		return med, vs[0], vs[len(vs)-1]
	}
	r := Result{Name: runs[0].Name, Runs: len(runs)}
	r.NsOp, r.NsMin, r.NsMax = pick(func(r Result) float64 { return r.NsOp })
	r.BytesOp, _, _ = pick(func(r Result) float64 { return r.BytesOp })
	r.AllocsOp, _, _ = pick(func(r Result) float64 { return r.AllocsOp })
	r.ReqS, _, _ = pick(func(r Result) float64 { return r.ReqS })
	return r
}

// gate compares current results against the baseline, printing one line
// per problem; it returns true when everything passes.
func gate(base Baseline, cur []Result) bool {
	curBy := map[string]Result{}
	for _, r := range cur {
		curBy[r.Name] = r
	}
	baseNames := map[string]bool{}
	ok := true
	for _, old := range base.Benchmarks {
		baseNames[old.Name] = true
		now, found := curBy[old.Name]
		if !found {
			fmt.Printf("FAIL %s: present in baseline but not in this run\n", old.Name)
			ok = false
			continue
		}
		if old.AllocsOp >= 0 && now.AllocsOp > old.AllocsOp*1.25+2 {
			fmt.Printf("FAIL %s: allocs/op %.1f exceeds baseline %.1f (gate: old*1.25+2)\n",
				old.Name, now.AllocsOp, old.AllocsOp)
			ok = false
		}
		if now.AllocsOp >= 0 && now.AllocsOp < (old.AllocsOp-2)/1.25 {
			fmt.Printf("FAIL %s: allocs/op %.1f fell far below baseline %.1f (gate: (old-2)/1.25); re-pin the row\n",
				old.Name, now.AllocsOp, old.AllocsOp)
			ok = false
		}
		if old.BytesOp >= 0 && now.BytesOp > old.BytesOp*1.5+512 {
			fmt.Printf("FAIL %s: B/op %.0f exceeds baseline %.0f (gate: old*1.5+512)\n",
				old.Name, now.BytesOp, old.BytesOp)
			ok = false
		}
		if old.NsOp > 0 && now.NsOp > old.NsOp*6 {
			fmt.Printf("FAIL %s: ns/op %.0f exceeds baseline %.0f by >6x (catastrophic gate)\n",
				old.Name, now.NsOp, old.NsOp)
			ok = false
		}
		if old.ReqS > 0 && now.ReqS < old.ReqS/6 {
			fmt.Printf("FAIL %s: req/s %.0f fell below baseline %.0f by >6x (catastrophic gate, higher is better)\n",
				old.Name, now.ReqS, old.ReqS)
			ok = false
		}
	}
	for _, r := range cur {
		if !baseNames[r.Name] {
			fmt.Printf("note: %s not in baseline (new benchmark; refresh with scripts/bench.sh)\n", r.Name)
		}
	}
	return ok
}
