package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"dyncg/internal/api"
	"dyncg/internal/canon"
)

// TestTailPercentile pins the tail rule: the highest whole percentile
// ≤ top with at least ten samples beyond its nearest-rank position.
func TestTailPercentile(t *testing.T) {
	cases := []struct {
		n, top, wantP int
	}{
		{1000, 99, 99}, // rank 990, ten beyond
		{999, 99, 98},  // p99 would leave nine beyond
		{2000, 99, 99},
		{100, 99, 90}, // rank 90, ten beyond
		{50, 99, 80},  // rank 40, ten beyond
		{1000, 90, 90},
		{99, 90, 89}, // p90 would leave nine beyond
	}
	for _, c := range cases {
		xs := make([]float64, c.n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		v, p, ok := tailPercentile(xs, c.top)
		if !ok || p != c.wantP {
			t.Errorf("n=%d top=%d: got p%d ok=%v, want p%d", c.n, c.top, p, ok, c.wantP)
			continue
		}
		if beyond := c.n - int(v); beyond < 10 {
			t.Errorf("n=%d: p%d = %v leaves %d samples beyond it", c.n, p, v, beyond)
		}
	}
	if _, _, ok := tailPercentile(make([]float64, 15), tailTop); ok {
		t.Error("15 samples cannot support a tail percentile at or above p50")
	}
}

// TestQuartilesMatchPython pins quartiles to Python's
// statistics.quantiles(xs, n=4), the spread rule runs are judged by.
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{5, 1}, [3]float64{0, 3, 6}},
		{[]float64{10, 12.5, 11, 30, 9}, [3]float64{9.5, 11, 21.25}},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.xs)
		if got := [3]float64{q1, q2, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

// TestOpenLoopStallInflatesQueuedRequests checks the due-time
// accounting: when one request stalls, the requests due during the
// stall wait for the lane, and that wait is part of their latency.
func TestOpenLoopStallInflatesQueuedRequests(t *testing.T) {
	run := func(stall time.Duration) phase {
		k := 0
		return openLoop(1, 100, 500*time.Millisecond, func(int) bool {
			k++
			if k == 4 {
				time.Sleep(stall)
			}
			return true
		})
	}
	calm := run(0)
	if calm.ops < 45 || calm.latMs[len(calm.latMs)-1] > 50 {
		t.Fatalf("unstalled run: %d ops, worst latency %.1fms", calm.ops, calm.latMs[len(calm.latMs)-1])
	}
	stalled := run(250 * time.Millisecond)
	if stalled.ops != calm.ops {
		t.Errorf("stalled run sent %d ops, want the schedule's %d", stalled.ops, calm.ops)
	}
	// Requests due 40–140 ms into the run wait for a stall that ends
	// after 280 ms: each of those ten sees at least 140 ms.
	slow := 0
	for _, l := range stalled.latMs {
		if l >= 140 {
			slow++
		}
	}
	if slow < 10 {
		t.Errorf("only %d requests show the stall's queueing delay, want ≥ 10 (latencies %v)", slow, stalled.latMs)
	}
}

// TestSameSeedSameBodies: inputs, including the session streams of the
// traced run, are a pure function of the seed.
func TestSameSeedSameBodies(t *testing.T) {
	dump := func(w *workload, seed int64) []byte {
		var b bytes.Buffer
		if w == nil {
			for l := 0; l < lanes; l++ {
				g := newSessionGen(seed, l)
				for _, o := range g.creates() {
					fmt.Fprintf(&b, "%d %s\n", o.kind, o.body)
				}
				for i := 0; i < 300; i++ {
					o := g.next()
					fmt.Fprintf(&b, "%d %d %s %v\n", o.kind, o.slot, o.body, o.points)
				}
			}
			return b.Bytes()
		}
		in := generate(w, seed, 0.2, 0.2)
		for _, ops := range append(in.closed[:], in.open[:]...) {
			for _, o := range ops {
				fmt.Fprintf(&b, "%d %s %s\n", o.kind, o.algo, o.body)
			}
		}
		return b.Bytes()
	}
	for _, w := range append(workloads, nil) {
		name := "sessions"
		if w != nil {
			name = w.name
		}
		a, b, c := dump(w, 7), dump(w, 7), dump(w, 8)
		if len(a) == 0 {
			t.Fatalf("%s: generated nothing", name)
		}
		if !bytes.Equal(a, b) {
			t.Errorf("%s: the same seed generated different bodies", name)
		}
		if bytes.Equal(a, c) {
			t.Errorf("%s: different seeds generated the same bodies", name)
		}
	}
}

// TestSpellingsShareCanonicalKey: every spelling of a hot request is a
// different byte string with the same canonical hash, so the cache must
// answer all of them with one body.
func TestSpellingsShareCanonicalKey(t *testing.T) {
	h := newHotSet(rand.New(rand.NewSource(3)))
	for i, sp := range h.ops {
		var key string
		seen := map[string]bool{}
		for s, o := range sp {
			var req api.Request
			if err := json.Unmarshal(o.body, &req); err != nil {
				t.Fatalf("hot %d spelling %d does not decode: %v\n%s", i, s, err, o.body)
			}
			k, ok := canon.Key(o.algo, req.Options.Topology, 1, &req)
			if !ok {
				t.Fatalf("hot %d is not cacheable", i)
			}
			if s == 0 {
				key = k
			} else if k != key {
				t.Errorf("hot %d spelling %d has key %s, spelling 0 has %s", i, s, k, key)
			}
			if seen[string(o.body)] {
				t.Errorf("hot %d spelling %d repeats another spelling's bytes", i, s)
			}
			seen[string(o.body)] = true
		}
	}
}

// TestGeneratedRequestsSucceed: every endpoint at every size class on
// both topologies answers without error, so no workload op fails by
// construction.
func TestGeneratedRequestsSucceed(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for i := range endpoints {
		for cls := 0; cls < 3; cls++ {
			for _, tp := range topologies {
				req := randomRequest(r, &endpoints[i], cls, tp, 0)
				if _, err := directCall(endpoints[i].name, req); err != nil {
					t.Errorf("%s class %d on %s: %v", endpoints[i].name, cls, tp, err)
				}
			}
		}
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestMetricsMatchBenchmarkJSON: the names, units, directions and
// bounds the benchmark prints are the ones BENCHMARK.json declares, and
// each workload's declared reason states its open-loop rate.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		d := doc.Workloads[i]
		if d.Name != w.name || d.Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q %q, the benchmark %q %q", i, d.Name, d.Why, w.name, w.why)
		}
		if !strings.Contains(w.why, fmt.Sprintf("open loop at %g req/s", w.rate)) {
			t.Errorf("%s: reason does not state the open-loop rate %g req/s", w.name, w.rate)
		}
	}
	if len(doc.EndToEnd) != len(e2eMetrics) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the benchmark prints %d", len(doc.EndToEnd), len(e2eMetrics))
	}
	for i, m := range e2eMetrics {
		d := doc.EndToEnd[i]
		if d.Name != m.name || d.Unit != m.unit || d.Better != m.better || d.Bound != m.bound {
			t.Errorf("end-to-end %d: BENCHMARK.json %+v, benchmark %+v", i, d, m)
		}
	}
	if len(doc.PerLayer) != len(layerMetrics) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the benchmark prints %d", len(doc.PerLayer), len(layerMetrics))
	}
	for i, m := range layerMetrics {
		d := doc.PerLayer[i]
		if d.Name != m.name || d.Unit != m.unit || d.Better != m.better {
			t.Errorf("per-layer %d: BENCHMARK.json %+v, benchmark %+v", i, d, m)
		}
	}
	seen := map[string]bool{}
	for _, m := range append(append([]metric(nil), e2eMetrics...), layerMetrics...) {
		if !nameRE.MatchString(m.name) {
			t.Errorf("metric name %q uses characters outside letters, digits, _ . -", m.name)
		}
		if seen[m.name] {
			t.Errorf("metric %q declared twice", m.name)
		}
		seen[m.name] = true
	}
}

// TestCalmRounds: end-to-end figures come from the rounds with no more
// host steal than the median round, and from every round when there is
// none.
func TestCalmRounds(t *testing.T) {
	rs := []round{{goodput: 1, closedSteal: 0}, {goodput: 2, closedSteal: 0.3}, {goodput: 3, closedSteal: 0.1}, {goodput: 4}}
	var got []float64
	for _, r := range calm(rs, func(r round) float64 { return r.closedSteal }) {
		got = append(got, r.goodput)
	}
	if fmt.Sprint(got) != "[1 4]" {
		t.Errorf("calm rounds by closed steal: goodputs %v, want [1 4]", got)
	}
	if n := len(calm(rs, func(r round) float64 { return r.openSteal })); n != len(rs) {
		t.Errorf("with no steal, %d of %d rounds are calm", n, len(rs))
	}
}
