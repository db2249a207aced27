package trace_test

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"dyncg/internal/colstore"
	"dyncg/internal/hypercube"
	"dyncg/internal/machine"
	"dyncg/internal/mesh"
	"dyncg/internal/trace"
)

func sortedInts(n int, r *rand.Rand) colstore.File[int] {
	vals := make([]int, n)
	for i := range vals {
		vals[i] = r.Intn(1 << 20)
	}
	return colstore.Scatter(n, vals)
}

func TestSpanTreeMatchesMachineStats(t *testing.T) {
	for _, topo := range []machine.Topology{
		mesh.MustNew(64, mesh.Proximity), hypercube.MustNew(64),
	} {
		m := machine.New(topo)
		tr := trace.Attach(m, "root")
		r := rand.New(rand.NewSource(1))

		tr.Begin("phase-a")
		regs := sortedInts(64, r)
		machine.SortCols(m, regs, func(a, b int) bool { return a < b })
		tr.End()
		tr.Begin("phase-b")
		machine.ScanCols(m, regs, machine.WholeMachine(64), machine.Forward,
			func(a, b int) int { return a + b })
		tr.End()

		root := tr.Finish()
		if got, want := root.Delta().Time(), m.Stats().Time(); got != want {
			t.Fatalf("%s: root delta time %d != machine time %d", topo.Name(), got, want)
		}
		if got, want := root.Delta(), m.Stats(); got != want {
			t.Fatalf("%s: root delta %+v != machine stats %+v", topo.Name(), got, want)
		}
		if len(root.Children) != 2 {
			t.Fatalf("want 2 phases, got %d", len(root.Children))
		}
		a, b := root.Children[0], root.Children[1]
		if a.Name != "phase-a" || b.Name != "phase-b" {
			t.Fatalf("unexpected child names %q %q", a.Name, b.Name)
		}
		// The sort phase must contain the machine-level sort span, which
		// in turn contains one merge span per bitonic level.
		if len(a.Children) != 1 || a.Children[0].Name != "sort" {
			t.Fatalf("phase-a children: %+v", a.Children)
		}
		if got := len(a.Children[0].Children); got != 6 { // log2(64) merge levels
			t.Fatalf("want 6 merge levels under sort, got %d", got)
		}
		// Deltas are consistent: parent delta = sum of children + self.
		root.Walk(func(s *trace.Span, depth int) {
			sum := s.Self()
			for _, c := range s.Children {
				sum = sum.Add(c.Delta())
			}
			if sum != s.Delta() {
				t.Fatalf("span %s: self+children %+v != delta %+v", s.Name, sum, s.Delta())
			}
		})
		// The machine must be detached after Finish.
		if m.Observed() {
			t.Fatal("machine still observed after Finish")
		}
	}
}

func TestAttrsAndRoundRecording(t *testing.T) {
	m := machine.New(hypercube.MustNew(16))
	tr := trace.Attach(m, "root", trace.WithRounds())
	regs := sortedInts(16, rand.New(rand.NewSource(2)))
	machine.ScanCols(m, regs, machine.WholeMachine(16), machine.Forward,
		func(a, b int) int { return a + b })
	root := tr.Finish()
	if root.Attr("machine") != m.Topology().Name() || root.Attr("pes") != "16" {
		t.Fatalf("root attrs: %+v", root.Attrs)
	}
	scan := root.Children[0]
	if scan.Name != "prefix" || scan.Attr("n") != "16" {
		t.Fatalf("scan span: %+v", scan)
	}
	if len(scan.Rounds) != 4 { // log2(16) shift rounds
		t.Fatalf("want 4 recorded rounds, got %d", len(scan.Rounds))
	}
	for _, ri := range scan.Rounds {
		if ri.Kind != machine.RoundShift {
			t.Fatalf("unexpected round kind %v", ri.Kind)
		}
	}
}

func TestFinishClosesOpenSpans(t *testing.T) {
	m := machine.New(hypercube.MustNew(8))
	tr := trace.Attach(m, "root")
	tr.Begin("left-open")
	tr.Begin("nested")
	m.ChargeLocal(3)
	root := tr.Finish()
	if root.End.LocalSteps != 3 {
		t.Fatalf("root end snapshot %+v", root.End)
	}
	open := root.Children[0]
	if open.End != root.End || open.Children[0].End != root.End {
		t.Fatal("open spans not closed by Finish")
	}
	// Unmatched End must not pop past the root.
	tr2 := trace.Attach(m, "root2")
	tr2.End()
	tr2.End()
	tr2.Begin("child")
	tr2.End()
	root2 := tr2.Finish()
	if len(root2.Children) != 1 || root2.Children[0].Name != "child" {
		t.Fatalf("root2 children: %+v", root2.Children)
	}
}

func TestChromeExportRoundTrips(t *testing.T) {
	m := machine.New(mesh.MustNew(64, mesh.Proximity))
	tr := trace.Attach(m, "sort-run")
	regs := sortedInts(64, rand.New(rand.NewSource(3)))
	machine.SortCols(m, regs, func(a, b int) bool { return a < b })
	root := tr.Finish()

	var buf bytes.Buffer
	if err := trace.WriteChrome(&buf, root, m); err != nil {
		t.Fatal(err)
	}
	var doc trace.ChromeTrace
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome JSON does not round-trip: %v", err)
	}
	var complete, meta int
	var rootEv *trace.ChromeEvent
	for i, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "M":
			meta++
		case "X":
			complete++
			if ev.Ts < 0 || ev.Dur < 0 || ev.Name == "" {
				t.Fatalf("malformed event %+v", ev)
			}
			if ev.Name == "sort-run" {
				rootEv = &doc.TraceEvents[i]
			}
		default:
			t.Fatalf("unexpected phase %q", ev.Ph)
		}
	}
	if meta != 2 {
		t.Fatalf("want 2 metadata events, got %d", meta)
	}
	if complete < 8 { // root + sort + 6 merge levels
		t.Fatalf("want ≥8 complete events, got %d", complete)
	}
	if rootEv == nil || rootEv.Dur != m.Stats().Time() {
		t.Fatalf("root event %+v; want dur %d", rootEv, m.Stats().Time())
	}
}

func TestCostTreeRootEqualsMachineTime(t *testing.T) {
	m := machine.New(hypercube.MustNew(64))
	tr := trace.Attach(m, "run")
	regs := sortedInts(64, rand.New(rand.NewSource(4)))
	machine.SortCols(m, regs, func(a, b int) bool { return a < b })
	machine.SpreadCols(m, regs, machine.WholeMachine(64))
	root := tr.Finish()

	var buf bytes.Buffer
	trace.WriteCostTree(&buf, root, 0)
	out := buf.String()
	want := "root total = " + itoa64(m.Stats().Time())
	if !strings.Contains(out, want) {
		t.Fatalf("cost tree missing %q:\n%s", want, out)
	}
	for _, name := range []string{"run", "sort", "merge", "broadcast", "prefix", "100.0%"} {
		if !strings.Contains(out, name) {
			t.Fatalf("cost tree missing %q:\n%s", name, out)
		}
	}
	// Depth-limited rendering hides the merge levels.
	buf.Reset()
	trace.WriteCostTree(&buf, root, 2)
	if strings.Contains(buf.String(), "merge") {
		t.Fatalf("depth-2 tree should not contain merge levels:\n%s", buf.String())
	}
}

func TestCollectMetrics(t *testing.T) {
	m := machine.New(hypercube.MustNew(64))
	tr := trace.Attach(m, "run")
	regs := sortedInts(64, rand.New(rand.NewSource(5)))
	machine.SortCols(m, regs, func(a, b int) bool { return a < b })
	machine.SemigroupCols(m, regs, machine.WholeMachine(64), func(a, b int) int { return a + b })
	root := tr.Finish()

	ms := trace.Collect(root)
	if ms.Root != m.Stats() {
		t.Fatalf("metrics root %+v != stats %+v", ms.Root, m.Stats())
	}
	// Self-times partition the total exactly.
	var sum int64
	for _, pm := range ms.ByName {
		sum += pm.Total.Time()
	}
	if sum != ms.Root.Time() {
		t.Fatalf("self-times sum %d != total %d", sum, ms.Root.Time())
	}
	if ms.ByName["merge"] == nil || ms.ByName["merge"].Calls != 6 {
		t.Fatalf("merge metrics: %+v", ms.ByName["merge"])
	}
	if ms.ByName["semigroup"] == nil || ms.ByName["prefix"] == nil {
		t.Fatalf("missing primitives: %v", ms.ByName)
	}
	var buf bytes.Buffer
	ms.Write(&buf)
	if !strings.Contains(buf.String(), "merge") || !strings.Contains(buf.String(), "total") {
		t.Fatalf("metrics table:\n%s", buf.String())
	}
}

func TestHistBuckets(t *testing.T) {
	var h trace.Hist
	for _, v := range []int64{0, 1, 1, 2, 3, 4, 1000} {
		h.Observe(v)
	}
	if h.Counts[0] != 1 || h.Counts[1] != 2 || h.Counts[2] != 2 || h.Counts[3] != 1 || h.Counts[10] != 1 {
		t.Fatalf("hist %v", h.Counts)
	}
	if s := h.String(); !strings.Contains(s, "[512,1024):1") {
		t.Fatalf("hist string %q", s)
	}
}

func itoa64(v int64) string { return strconv.FormatInt(v, 10) }

// BenchmarkObserverOverhead measures the cost of the observer hooks on
// the hot path: a full bitonic sort on 4096 PEs with tracing disabled
// (the nil-check fast path — the default for every caller that does not
// attach a tracer) vs enabled. The disabled number is what EXPERIMENTS.md
// records against the pre-hook baseline.
func BenchmarkObserverOverhead(b *testing.B) {
	const n = 4096
	r := rand.New(rand.NewSource(6))
	vals := make([]int, n)
	for i := range vals {
		vals[i] = r.Intn(1 << 20)
	}
	run := func(b *testing.B, attach bool) {
		m := machine.New(hypercube.MustNew(n))
		for i := 0; i < b.N; i++ {
			var tr *trace.Tracer
			if attach {
				tr = trace.Attach(m, "bench")
			}
			regs := colstore.Scatter(n, vals)
			machine.SortCols(m, regs, func(a, b int) bool { return a < b })
			if attach {
				tr.Finish()
			}
		}
	}
	b.Run("disabled", func(b *testing.B) { run(b, false) })
	b.Run("enabled", func(b *testing.B) { run(b, true) })
}
