// Scale-up differential battery for the columnar simulator core: every
// serving-surface algorithm runs on mesh and hypercube machines at
// n ∈ {16, 1024, 65536} PEs, and the answer (in its
// wire form), the Stats counters, and the trace round stream must be
// bit-identical to golden captures recorded before the struct-of-arrays
// refactor of internal/machine. The goldens live under
// testdata/replay/columnar/ next to the replaylog corpora; regenerate
// them (only when behaviour is *supposed* to change) with
//
//	go test -run TestColumnarDifferential -update-columnar .
//
// Small-n goldens additionally pin the full span tree for debuggability;
// large-n goldens pin a canonical SHA-256 digest of the span tree and its
// round stream. Large-n cases are skipped under -short and under the
// race detector (wall-clock prohibitive; the same code paths run under
// -race at the smaller sizes).
package dyncg_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"hash"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"dyncg/internal/api"
	"dyncg/internal/core"
	"dyncg/internal/hypercube"
	"dyncg/internal/machine"
	"dyncg/internal/mesh"
	"dyncg/internal/motion"
	"dyncg/internal/trace"
)

var updateColumnar = flag.Bool("update-columnar", false,
	"rewrite the testdata/replay/columnar goldens with the current behaviour")

// columnarSizes are the machine sizes of the battery: a toy machine, the
// pre-refactor bench ceiling neighbourhood, and a scale-up size. All are
// simultaneously powers of four (mesh) and two (hypercube), so both
// families construct exactly n PEs.
var columnarSizes = []int{16, 1024, 65536}

// columnarSystem is the fixed 6-point, 1-motion planar system every case
// runs on. The battery varies the *machine*, not the input: the point of
// the refactor is that the same small computation stays bit-identical
// while the register files underneath it grow from 16 PEs to 65536.
func columnarSystem() *motion.System {
	return motion.Random(rand.New(rand.NewSource(1988)), 6, 1, 2, 10)
}

// columnarAlgos mirrors the serving surface: the 14 POST /v1/<name>
// algorithms, each paired with its wire conversion (the same rendering
// internal/server applies), so golden answers are the exact payloads a
// daemon would have served.
var columnarAlgos = []struct {
	name string
	run  func(m *machine.M, sys *motion.System) (any, error)
}{
	{"closest-point-sequence", func(m *machine.M, sys *motion.System) (any, error) {
		seq, err := core.ClosestPointSequence(m, sys, 0)
		return wireNeighborEvents(seq), err
	}},
	{"farthest-point-sequence", func(m *machine.M, sys *motion.System) (any, error) {
		seq, err := core.FarthestPointSequence(m, sys, 0)
		return wireNeighborEvents(seq), err
	}},
	{"collision-times", func(m *machine.M, sys *motion.System) (any, error) {
		cs, err := core.CollisionTimes(m, sys, 0)
		out := make([]api.Collision, 0, len(cs))
		for _, c := range cs {
			out = append(out, api.Collision{T: c.T, A: c.A, B: c.B})
		}
		return out, err
	}},
	{"hull-vertex-intervals", func(m *machine.M, sys *motion.System) (any, error) {
		ivs, err := core.HullVertexIntervals(m, sys, 0)
		return wireIntervals(ivs), err
	}},
	{"containment-intervals", func(m *machine.M, sys *motion.System) (any, error) {
		ivs, err := core.ContainmentIntervals(m, sys, []float64{10, 10})
		return wireIntervals(ivs), err
	}},
	{"smallest-hypercube-edge", func(m *machine.M, sys *motion.System) (any, error) {
		pw, err := core.SmallestHypercubeEdge(m, sys)
		out := make([]api.Piece, 0, len(pw))
		for _, p := range pw {
			out = append(out, api.Piece{F: fmt.Sprintf("%v", p.F), ID: p.ID, Lo: api.Time(p.Lo), Hi: api.Time(p.Hi)})
		}
		return out, err
	}},
	{"smallest-ever-hypercube", func(m *machine.M, sys *motion.System) (any, error) {
		dmin, tmin, err := core.SmallestEverHypercube(m, sys)
		return api.MinCube{D: dmin, T: tmin}, err
	}},
	{"steady-nearest-neighbor", func(m *machine.M, sys *motion.System) (any, error) {
		nn, err := core.SteadyNearestNeighborD(m, sys, 0, false)
		return api.Neighbor{Point: nn}, err
	}},
	{"steady-closest-pair", func(m *machine.M, sys *motion.System) (any, error) {
		a, b, err := core.SteadyClosestPair(m, sys)
		return api.Pair{A: a, B: b}, err
	}},
	{"steady-hull", func(m *machine.M, sys *motion.System) (any, error) {
		hull, err := core.SteadyHull(m, sys)
		return api.Hull{Vertices: hull}, err
	}},
	{"steady-farthest-pair", func(m *machine.M, sys *motion.System) (any, error) {
		a, b, d2, err := core.SteadyFarthestPair(m, sys)
		return api.FarthestPair{A: a, B: b, Dist2: append(make([]float64, 0, len(d2)), d2...)}, err
	}},
	{"steady-min-area-rect", func(m *machine.M, sys *motion.System) (any, error) {
		rect, err := core.SteadyMinAreaRect(m, sys)
		if err != nil {
			return nil, err
		}
		return api.Rect{Edge: rect.Edge, Area: fmt.Sprintf("%v", rect.Area)}, nil
	}},
	{"closest-pair-sequence", func(m *machine.M, sys *motion.System) (any, error) {
		seq, err := core.ClosestPairSequence(m, sys)
		return wirePairEvents(seq), err
	}},
	{"farthest-pair-sequence", func(m *machine.M, sys *motion.System) (any, error) {
		seq, err := core.FarthestPairSequence(m, sys)
		return wirePairEvents(seq), err
	}},
}

func wireNeighborEvents(seq []core.NeighborEvent) []api.NeighborEvent {
	out := make([]api.NeighborEvent, 0, len(seq))
	for _, ev := range seq {
		out = append(out, api.NeighborEvent{Point: ev.Point, Lo: api.Time(ev.Lo), Hi: api.Time(ev.Hi)})
	}
	return out
}

func wireIntervals(ivs []core.Interval) []api.Interval {
	out := make([]api.Interval, 0, len(ivs))
	for _, iv := range ivs {
		out = append(out, api.Interval{Lo: api.Time(iv.Lo), Hi: api.Time(iv.Hi)})
	}
	return out
}

func wirePairEvents(seq []core.PairEvent) []api.PairEvent {
	out := make([]api.PairEvent, 0, len(seq))
	for _, ev := range seq {
		out = append(out, api.PairEvent{A: ev.A, B: ev.B, Lo: api.Time(ev.Lo), Hi: api.Time(ev.Hi)})
	}
	return out
}

// columnarGolden is one committed capture: everything observable about
// one (algorithm, topology, n) computation.
type columnarGolden struct {
	Algo   string          `json:"algo"`
	Topo   string          `json:"topo"`
	N      int             `json:"n"`
	Err    string          `json:"err,omitempty"`
	Answer json.RawMessage `json:"answer,omitempty"`
	Stats  machine.Stats   `json:"stats"`
	// SpanDigest is the canonical SHA-256 of the span tree: names,
	// attributes, Begin/End counters, and the full per-round event stream.
	SpanDigest string `json:"span_digest"`
	// Spans pins the whole tree (rounds included) at the smallest size, so
	// a digest mismatch at n=16 is debuggable by eye.
	Spans json.RawMessage `json:"spans,omitempty"`
}

// compactJSON strips the indentation MarshalIndent adds to nested raw
// messages when a golden is written, so answers compare byte-identically
// modulo that formatting.
func compactJSON(t *testing.T, raw json.RawMessage) string {
	t.Helper()
	if len(raw) == 0 {
		return ""
	}
	var buf bytes.Buffer
	if err := json.Compact(&buf, raw); err != nil {
		t.Fatalf("compact: %v", err)
	}
	return buf.String()
}

func columnarGoldenPath(algo, topo string, n int) string {
	return filepath.Join("testdata", "replay", "columnar",
		fmt.Sprintf("%s_%s_n%d.json", algo, topo, n))
}

// spanDigest canonically hashes a span tree, round stream included.
func spanDigest(root *trace.Span) string {
	h := sha256.New()
	hashSpan(h, root)
	return hex.EncodeToString(h.Sum(nil))
}

func hashSpan(h hash.Hash, s *trace.Span) {
	writeString := func(str string) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], uint64(len(str)))
		h.Write(b[:])
		h.Write([]byte(str))
	}
	writeInts := func(vs ...int64) {
		var b [8]byte
		for _, v := range vs {
			binary.LittleEndian.PutUint64(b[:], uint64(v))
			h.Write(b[:])
		}
	}
	writeString(s.Name)
	writeInts(int64(len(s.Attrs)))
	for _, a := range s.Attrs {
		writeString(a.Key)
		writeString(a.Val)
	}
	writeInts(s.Begin.CommSteps, s.Begin.LocalSteps, s.Begin.Rounds, s.Begin.Messages,
		s.End.CommSteps, s.End.LocalSteps, s.End.Rounds, s.End.Messages)
	writeInts(int64(len(s.Rounds)))
	for _, r := range s.Rounds {
		writeInts(int64(r.Kind), int64(r.Param), int64(r.Dist), int64(r.Msgs))
	}
	writeInts(int64(len(s.Children)))
	for _, c := range s.Children {
		hashSpan(h, c)
	}
}

// runColumnarCase executes one (algo, topo, n) cell and returns its
// observable behaviour.
func runColumnarCase(t *testing.T, algoIdx int, topo machine.Topology) (g columnarGolden, root *trace.Span) {
	t.Helper()
	m := machine.New(topo)
	tr := trace.Attach(m, "columnar", trace.WithRounds())
	ans, err := columnarAlgos[algoIdx].run(m, columnarSystem())
	st := m.Stats()
	root = tr.Finish()
	g = columnarGolden{
		Algo:       columnarAlgos[algoIdx].name,
		Topo:       topo.Name(),
		N:          topo.Size(),
		Stats:      st,
		SpanDigest: spanDigest(root),
	}
	if err != nil {
		g.Err = err.Error()
		return g, root
	}
	raw, jerr := json.Marshal(ans)
	if jerr != nil {
		t.Fatalf("marshal answer: %v", jerr)
	}
	g.Answer = raw
	return g, root
}

// TestColumnarDifferential is the scale-up differential battery: current
// behaviour vs the committed pre-refactor captures, at every size and
// worker count, for all 14 serving-surface algorithms on both of the
// paper's machine families.
func TestColumnarDifferential(t *testing.T) {
	sys := columnarSystem()
	if sys.N() != 6 || sys.K != 1 {
		t.Fatalf("fixed system drifted: n=%d k=%d", sys.N(), sys.K)
	}
	for _, n := range columnarSizes {
		if n > 1024 && testing.Short() {
			continue
		}
		// Race instrumentation multiplies the 65536 tier past any sane
		// wall clock (>10m); the same columnar code paths run under
		// -race at 16 and 1024, and the large tier runs uninstrumented
		// in the plain suite and the large-n CI step.
		if n > 1024 && raceEnabled {
			continue
		}
		topos := map[string]machine.Topology{
			"mesh":      mesh.MustNew(n, mesh.Proximity),
			"hypercube": hypercube.MustNew(n),
		}
		for topoName, topo := range topos {
			if topo.Size() != n {
				t.Fatalf("%s: constructed %d PEs, want exactly %d", topoName, topo.Size(), n)
			}
			for ai := range columnarAlgos {
				algo := columnarAlgos[ai].name
				t.Run(fmt.Sprintf("%s/%s/n=%d", algo, topoName, n), func(t *testing.T) {
					path := columnarGoldenPath(algo, topoName, n)
					if *updateColumnar {
						g, root := runColumnarCase(t, ai, topo)
						if n == columnarSizes[0] {
							spans, err := json.Marshal(root)
							if err != nil {
								t.Fatalf("marshal spans: %v", err)
							}
							g.Spans = spans
						}
						data, err := json.MarshalIndent(g, "", " ")
						if err != nil {
							t.Fatal(err)
						}
						if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
							t.Fatal(err)
						}
						if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
							t.Fatal(err)
						}
						return
					}
					data, err := os.ReadFile(path)
					if err != nil {
						t.Fatalf("missing golden (run with -update-columnar to record): %v", err)
					}
					var want columnarGolden
					if err := json.Unmarshal(data, &want); err != nil {
						t.Fatalf("%s: %v", path, err)
					}
					got, root := runColumnarCase(t, ai, topo)
					if got.Err != want.Err {
						t.Fatalf("err %q != golden %q", got.Err, want.Err)
					}
					if compactJSON(t, got.Answer) != compactJSON(t, want.Answer) {
						t.Fatalf("answer diverges from pre-refactor capture:\n got %s\nwant %s",
							got.Answer, want.Answer)
					}
					if got.Stats != want.Stats {
						t.Fatalf("stats %+v != golden %+v", got.Stats, want.Stats)
					}
					if got.SpanDigest != want.SpanDigest {
						if len(want.Spans) > 0 {
							var wantRoot trace.Span
							if err := json.Unmarshal(want.Spans, &wantRoot); err != nil {
								t.Fatalf("unmarshal golden spans: %v", err)
							}
							requireSpansEqual(t, &wantRoot, root, "golden")
						}
						t.Fatalf("span/round stream digest %s != golden %s",
							got.SpanDigest, want.SpanDigest)
					}
				})
			}
		}
	}
}
