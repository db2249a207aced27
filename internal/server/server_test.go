package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"dyncg/internal/algo"
	"dyncg/internal/api"
	"dyncg/internal/core"
	"dyncg/internal/fault"
	"dyncg/internal/machine"
	"dyncg/internal/motion"
	"dyncg/internal/topo"
)

// wireSystem converts a system to its wire form (point → coordinate →
// ascending coefficients).
func wireSystem(sys *motion.System) [][][]float64 {
	out := make([][][]float64, len(sys.Points))
	for i, p := range sys.Points {
		coords := make([][]float64, len(p.Coord))
		for j, c := range p.Coord {
			coords[j] = append([]float64(nil), c...)
		}
		out[i] = coords
	}
	return out
}

// post sends one v1 request to the handler and decodes the envelope with
// the result kept raw.
type rawResponse struct {
	V         int              `json:"v"`
	Algorithm string           `json:"algorithm"`
	Machine   api.MachineInfo  `json:"machine"`
	Stats     api.Stats        `json:"stats"`
	Pool      api.PoolInfo     `json:"pool"`
	Fault     *api.FaultReport `json:"fault"`
	CostTree  string           `json:"cost_tree"`
	Result    json.RawMessage  `json:"result"`
}

func post(t *testing.T, h http.Handler, algo string, req api.Request) (int, []byte) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	r := httptest.NewRequest(http.MethodPost, "/v1/"+algo, bytes.NewReader(body))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, r)
	return w.Code, w.Body.Bytes()
}

func decodeOK(t *testing.T, status int, body []byte) rawResponse {
	t.Helper()
	if status != http.StatusOK {
		t.Fatalf("status = %d, body %s", status, body)
	}
	var resp rawResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatalf("decoding response: %v (%s)", err, body)
	}
	return resp
}

func decodeErr(t *testing.T, body []byte) api.Error {
	t.Helper()
	var e api.Error
	if err := json.Unmarshal(body, &e); err != nil {
		t.Fatalf("decoding error envelope: %v (%s)", err, body)
	}
	return e
}

// endpointCases is one request per serving endpoint, covering every
// algorithm the facade exposes.
func endpointCases(testing.TB) map[string]api.Request {
	planar := motion.Random(rand.New(rand.NewSource(11)), 8, 1, 2, 10)
	colliding := motion.Converging(rand.New(rand.NewSource(12)), 8)
	diverging := motion.Diverging(rand.New(rand.NewSource(13)), 8)
	small := motion.Random(rand.New(rand.NewSource(14)), 6, 1, 2, 10)
	req := func(sys *motion.System, mod func(*api.Request)) api.Request {
		r := api.Request{V: api.Version, System: wireSystem(sys)}
		if mod != nil {
			mod(&r)
		}
		return r
	}
	return map[string]api.Request{
		"closest-point-sequence":  req(planar, func(r *api.Request) { r.Origin = 1 }),
		"farthest-point-sequence": req(planar, func(r *api.Request) { r.Origin = 2 }),
		"collision-times":         req(colliding, nil),
		"hull-vertex-intervals":   req(planar, func(r *api.Request) { r.Origin = 0 }),
		"containment-intervals":   req(planar, func(r *api.Request) { r.Dims = []float64{40, 40} }),
		"smallest-hypercube-edge": req(planar, nil),
		"smallest-ever-hypercube": req(planar, nil),
		"steady-nearest-neighbor": req(planar, func(r *api.Request) { r.Origin = 3 }),
		"steady-closest-pair":     req(planar, nil),
		"steady-hull":             req(diverging, nil),
		"steady-farthest-pair":    req(diverging, nil),
		"steady-min-area-rect":    req(diverging, nil),
		"closest-pair-sequence":   req(small, nil),
		"farthest-pair-sequence":  req(small, nil),
	}
}

// runDirect executes the request against the facade directly — the
// reference the served answers must match bit for bit. The facade calls
// here are written out by hand (not routed through the dispatch table)
// so the test exercises an independent path to each algorithm.
func runDirect(t *testing.T, name string, tp topo.Topology, req api.Request) (any, machine.Stats) {
	t.Helper()
	sys, err := algo.SystemFrom(req.System)
	if err != nil {
		t.Fatal(err)
	}
	m, err := topo.NewMachine(tp, prescribedPEs(name, string(tp), sys))
	if err != nil {
		t.Fatal(err)
	}
	var result any
	switch name {
	case "closest-point-sequence":
		seq, err := core.ClosestPointSequence(m, sys, req.Origin)
		check(t, err)
		result = algo.NeighborEvents(seq)
	case "farthest-point-sequence":
		seq, err := core.FarthestPointSequence(m, sys, req.Origin)
		check(t, err)
		result = algo.NeighborEvents(seq)
	case "collision-times":
		cs, err := core.CollisionTimes(m, sys, req.Origin)
		check(t, err)
		result = algo.Collisions(cs)
	case "hull-vertex-intervals":
		ivs, err := core.HullVertexIntervals(m, sys, req.Origin)
		check(t, err)
		result = algo.Intervals(ivs)
	case "containment-intervals":
		ivs, err := core.ContainmentIntervals(m, sys, req.Dims)
		check(t, err)
		result = algo.Intervals(ivs)
	case "smallest-hypercube-edge":
		pw, err := core.SmallestHypercubeEdge(m, sys)
		check(t, err)
		result = algo.Piecewise(pw)
	case "smallest-ever-hypercube":
		dmin, tmin, err := core.SmallestEverHypercube(m, sys)
		check(t, err)
		result = api.MinCube{D: dmin, T: tmin}
	case "steady-nearest-neighbor":
		nn, err := core.SteadyNearestNeighborD(m, sys, req.Origin, req.Farthest)
		check(t, err)
		result = api.Neighbor{Point: nn}
	case "steady-closest-pair":
		a, b, err := core.SteadyClosestPair(m, sys)
		check(t, err)
		result = api.Pair{A: a, B: b}
	case "steady-hull":
		hull, err := core.SteadyHull(m, sys)
		check(t, err)
		result = api.Hull{Vertices: hull}
	case "steady-farthest-pair":
		a, b, d2, err := core.SteadyFarthestPair(m, sys)
		check(t, err)
		result = api.FarthestPair{A: a, B: b, Dist2: algo.Coefs(d2)}
	case "steady-min-area-rect":
		rect, err := core.SteadyMinAreaRect(m, sys)
		check(t, err)
		result = api.Rect{Edge: rect.Edge, Area: fmt.Sprintf("%v", rect.Area)}
	case "closest-pair-sequence":
		seq, err := core.ClosestPairSequence(m, sys)
		check(t, err)
		result = algo.PairEvents(seq)
	case "farthest-pair-sequence":
		seq, err := core.FarthestPairSequence(m, sys)
		check(t, err)
		result = algo.PairEvents(seq)
	default:
		t.Fatalf("no direct path for %q", name)
	}
	return result, m.Stats()
}

// prescribedPEs is the table's PE prescription for one algorithm.
func prescribedPEs(name, tp string, sys *motion.System) int {
	a, _ := algo.Lookup(name)
	return a.PEs(tp, sys.N(), sys.K)
}

func check(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

// TestEndpointsBitIdenticalToFacade drives every endpoint over real HTTP
// (httptest server, both topology families of the paper) and demands the
// served result and simulated Stats match a direct facade run byte for
// byte.
func TestEndpointsBitIdenticalToFacade(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for _, tp := range []topo.Topology{topo.Hypercube, topo.Mesh} {
		for name, req := range endpointCases(t) {
			t.Run(string(tp)+"/"+name, func(t *testing.T) {
				req.Options.Topology = string(tp)
				body, err := json.Marshal(req)
				if err != nil {
					t.Fatal(err)
				}
				hr, err := http.Post(ts.URL+"/v1/"+name, "application/json", bytes.NewReader(body))
				if err != nil {
					t.Fatal(err)
				}
				defer hr.Body.Close()
				var resp rawResponse
				if hr.StatusCode != http.StatusOK {
					t.Fatalf("status %d", hr.StatusCode)
				}
				if err := json.NewDecoder(hr.Body).Decode(&resp); err != nil {
					t.Fatal(err)
				}

				wantResult, wantStats := runDirect(t, name, tp, req)
				wantJSON, err := json.Marshal(wantResult)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(resp.Result, wantJSON) {
					t.Errorf("served result differs from the direct facade call:\n  got  %s\n  want %s",
						resp.Result, wantJSON)
				}
				if got, want := resp.Stats, api.FromStats(wantStats); got != want {
					t.Errorf("served stats %+v, want %+v", got, want)
				}
				if resp.V != api.Version || resp.Algorithm != name {
					t.Errorf("envelope v=%d algorithm=%q", resp.V, resp.Algorithm)
				}
			})
		}
	}
}

// TestFaultedRequestBitIdentical pins the fault path: a request with a
// fault spec must bypass the pool and reproduce a direct recovery-harness
// run — same answer, same cumulative stats, same fault tally.
func TestFaultedRequestBitIdentical(t *testing.T) {
	s := New(Config{})
	sys := motion.Diverging(rand.New(rand.NewSource(13)), 8)
	const specStr = "transient=0.05,retries=3,fail=1,gap=150"
	req := api.Request{
		V:      api.Version,
		System: wireSystem(sys),
		Options: api.Options{
			Faults:    specStr,
			FaultSeed: 42,
		},
	}
	status, body := post(t, s.Handler(), "steady-hull", req)
	resp := decodeOK(t, status, body)
	if !resp.Pool.Bypassed || resp.Pool.Hit {
		t.Errorf("fault-injected request pool info = %+v, want bypassed", resp.Pool)
	}
	if resp.Fault == nil {
		t.Fatal("fault-injected response carries no fault report")
	}

	spec, err := fault.ParseSpec(specStr)
	check(t, err)
	net, err := topo.NewNetwork(topo.Hypercube, prescribedPEs("steady-hull", "hypercube", sys))
	check(t, err)
	var hull []int
	res, err := fault.Run(net, fault.NewPlan(spec, 42), func(m *machine.M) error {
		if m.Size() < sys.N() {
			return fmt.Errorf("degraded below %d PEs: %w", sys.N(), machine.ErrTooFewPEs)
		}
		var err error
		hull, err = core.SteadyHull(m, sys)
		return err
	})
	check(t, err)
	wantJSON, err := json.Marshal(api.Hull{Vertices: hull})
	check(t, err)
	if !bytes.Equal(resp.Result, wantJSON) {
		t.Errorf("faulted result %s, want %s", resp.Result, wantJSON)
	}
	if got, want := resp.Stats, api.FromStats(res.Stats); got != want {
		t.Errorf("faulted stats %+v, want %+v", got, want)
	}
	want := api.FaultReport{Attempts: res.Attempts, Transients: res.Transients,
		RetryRounds: res.RetryRounds, Failed: res.Failed}
	if resp.Fault.Attempts != want.Attempts || resp.Fault.Transients != want.Transients ||
		resp.Fault.RetryRounds != want.RetryRounds || len(resp.Fault.Failed) != len(want.Failed) {
		t.Errorf("fault report %+v, want %+v", *resp.Fault, want)
	}
	if want.Attempts < 2 {
		t.Errorf("fault spec with fail=1 recovered in %d attempt(s); the test exercised no remap", want.Attempts)
	}
}

// TestPoolReuseAcrossRequests: the second identical request must hit the
// pool and still produce the identical answer and stats.
func TestPoolReuseAcrossRequests(t *testing.T) {
	s := New(Config{})
	req := endpointCases(t)["steady-hull"]
	st1, b1 := post(t, s.Handler(), "steady-hull", req)
	first := decodeOK(t, st1, b1)
	if first.Pool.Hit {
		t.Error("first request reported a pool hit on an empty pool")
	}
	st2, b2 := post(t, s.Handler(), "steady-hull", req)
	second := decodeOK(t, st2, b2)
	if !second.Pool.Hit {
		t.Error("second identical request missed the pool")
	}
	if !bytes.Equal(first.Result, second.Result) || first.Stats != second.Stats {
		t.Errorf("pooled rerun drifted: %s %+v vs %s %+v",
			first.Result, first.Stats, second.Result, second.Stats)
	}
	if got := s.Pool().Stats(); got.Hits != 1 || got.Misses != 1 {
		t.Errorf("pool stats %+v, want 1 hit / 1 miss", got)
	}
}

// TestPoolEvictionUnderCap: with capacity 1, alternating size classes
// keep evicting; the server keeps answering correctly.
func TestPoolEvictionUnderCap(t *testing.T) {
	s := New(Config{PoolCap: 1})
	small := endpointCases(t)["steady-nearest-neighbor"] // 8 points → 8 PEs
	big := endpointCases(t)["steady-hull"]               // 8 points → 64 PEs
	for i := 0; i < 2; i++ {
		st, b := post(t, s.Handler(), "steady-nearest-neighbor", small)
		decodeOK(t, st, b)
		st, b = post(t, s.Handler(), "steady-hull", big)
		decodeOK(t, st, b)
	}
	ps := s.Pool().Stats()
	if ps.Evictions == 0 {
		t.Errorf("alternating size classes over a capacity-1 pool evicted nothing: %+v", ps)
	}
	if ps.Idle > 1 {
		t.Errorf("pool holds %d idle machines, capacity 1", ps.Idle)
	}
}

// TestTraceReturnsCostTree: options.trace attaches a tracer and the
// response carries the cost-attribution tree; the pooled machine comes
// back observer-free.
func TestTraceReturnsCostTree(t *testing.T) {
	s := New(Config{})
	req := endpointCases(t)["closest-point-sequence"]
	req.Options.Trace = true
	req.Options.CostDepth = 2
	status, body := post(t, s.Handler(), "closest-point-sequence", req)
	resp := decodeOK(t, status, body)
	if !strings.Contains(resp.CostTree, "closest-point-sequence") {
		t.Errorf("cost tree missing the root span:\n%s", resp.CostTree)
	}
	key := Key{Topo: "hypercube", PEs: resp.Machine.PEs, Workers: 1}
	m := s.Pool().Get(key)
	if m == nil {
		t.Fatal("traced machine was not returned to the pool")
	}
	if m.Observed() {
		t.Error("pooled machine still carries the request's tracer")
	}
}

// TestWorkersKeyedSeparately: a workers=2 request does not check out a
// serial request's machine (the resolved worker count is part of the
// size class), and it answers with the same result and stats; only the
// echoed machine.workers differs.
func TestWorkersKeyedSeparately(t *testing.T) {
	s := New(Config{})
	req := endpointCases(t)["steady-closest-pair"]
	st, b := post(t, s.Handler(), "steady-closest-pair", req)
	serial := decodeOK(t, st, b)

	req.Options.Workers = 2
	st, b = post(t, s.Handler(), "steady-closest-pair", req)
	two := decodeOK(t, st, b)
	if two.Pool.Hit {
		t.Error("workers=2 request hit the serial machine's class")
	}
	if two.Machine.Workers != 2 {
		t.Errorf("machine info workers = %d, want 2", two.Machine.Workers)
	}
	if !bytes.Equal(serial.Result, two.Result) || serial.Stats != two.Stats {
		t.Error("workers=2 changed the result or the stats")
	}
}

// --- error and overload paths -------------------------------------------

func TestErrorMapping(t *testing.T) {
	s := New(Config{})
	good := endpointCases(t)["steady-hull"]
	cases := []struct {
		name   string
		algo   string
		mut    func(*api.Request)
		status int
		code   api.ErrorCode
	}{
		{"unknown algorithm", "no-such-algorithm", nil, http.StatusNotFound, "unknown_algorithm"},
		{"bad version", "steady-hull", func(r *api.Request) { r.V = 99 }, http.StatusBadRequest, "bad_version"},
		{"bad topology", "steady-hull", func(r *api.Request) { r.Options.Topology = "torus" }, http.StatusBadRequest, "bad_topology"},
		{"bad faults", "steady-hull", func(r *api.Request) { r.Options.Faults = "transient=nope" }, http.StatusBadRequest, "bad_faults"},
		{"empty system", "steady-hull", func(r *api.Request) { r.System = nil }, http.StatusBadRequest, "bad_system"},
		{"origin out of range", "closest-point-sequence", func(r *api.Request) { r.Origin = 99 }, http.StatusBadRequest, "bad_system"},
		{"ccc too small", "steady-hull", func(r *api.Request) {
			r.Options.Topology = "ccc"
			r.Options.PEs = 1 << 20
		}, http.StatusUnprocessableEntity, "too_few_pes"},
		{"not survivable", "steady-hull", func(r *api.Request) {
			r.Options.Faults = "fail=70,gap=10"
			r.Options.FaultSeed = 3
		}, http.StatusServiceUnavailable, "not_survivable"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req := good
			if tc.mut != nil {
				tc.mut(&req)
			}
			status, body := post(t, s.Handler(), tc.algo, req)
			if status != tc.status {
				t.Fatalf("status = %d (%s), want %d", status, body, tc.status)
			}
			if e := decodeErr(t, body); e.Code != tc.code {
				t.Errorf("code = %q, want %q (%s)", e.Code, tc.code, e.Message)
			}
		})
	}
}

// TestZeroDimensionSystemRejected: a system whose points have no
// coordinates is a 400 bad_system on every one-shot endpoint and on
// session create, even with a single point (no pair is ever compared).
func TestZeroDimensionSystemRejected(t *testing.T) {
	h := New(Config{}).Handler()
	serveRaw := func(path, body string) (int, []byte) {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
		return w.Code, w.Body.Bytes()
	}
	for _, name := range algo.Names() {
		for _, sys := range []string{`[[]]`, `[[],[]]`} {
			st, body := serveRaw("/v1/"+name, `{"v":1,"system":`+sys+`,"dims":[1]}`)
			if st != http.StatusBadRequest || decodeErr(t, body).Code != api.CodeBadSystem {
				t.Errorf("%s with system %s: %d %s, want 400 bad_system", name, sys, st, body)
			}
		}
	}
	for _, name := range []string{"closest-point-sequence", "farthest-point-sequence", "containment-intervals",
		"smallest-hypercube-edge", "smallest-ever-hypercube", "closest-pair-sequence", "farthest-pair-sequence"} {
		st, body := serveRaw("/v1/sessions", `{"v":1,"algorithm":"`+name+`","system":[[]],"dims":[1]}`)
		if st != http.StatusBadRequest || decodeErr(t, body).Code != api.CodeBadSystem {
			t.Errorf("session %s with system [[]]: %d %s, want 400 bad_system", name, st, body)
		}
	}
}

// oversizedPEs is past the largest power of two an int holds (2^62 + 1).
const oversizedPEs = 1<<62 + 1

// answerWithin POSTs req as JSON to path and fails the test if no
// response arrives within two seconds. A handler stuck in size rounding
// never returns, so its goroutine is left behind for the failed test
// binary to exit with.
func answerWithin(t *testing.T, h http.Handler, path string, req any) (int, []byte) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	r := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	w := httptest.NewRecorder()
	done := make(chan struct{})
	go func() {
		h.ServeHTTP(w, r)
		close(done)
	}()
	select {
	case <-done:
		return w.Code, w.Body.Bytes()
	case <-time.After(2 * time.Second):
		t.Fatal("no response within 2s")
		return 0, nil
	}
}

// TestOversizedPEsRejected: a client-chosen PE count past 2^62 is a
// typed too_few_pes answer, not a handler spinning in size rounding.
func TestOversizedPEsRejected(t *testing.T) {
	s := New(Config{})
	for _, tp := range []string{"mesh", "hypercube", "shuffle"} {
		t.Run(tp, func(t *testing.T) {
			req := endpointCases(t)["steady-hull"]
			req.Options.Topology = tp
			req.Options.PEs = oversizedPEs
			st, body := answerWithin(t, s.Handler(), "/v1/steady-hull", req)
			if st != http.StatusUnprocessableEntity {
				t.Fatalf("status = %d (%s), want 422", st, body)
			}
			if e := decodeErr(t, body); e.Code != "too_few_pes" {
				t.Errorf("code = %q, want too_few_pes (%s)", e.Code, e.Message)
			}
		})
	}
}

func TestMalformedBody(t *testing.T) {
	s := New(Config{MaxBody: 256})
	for _, tc := range []struct {
		name, body string
		status     int
	}{
		{"malformed", "{not json", http.StatusBadRequest},
		{"oversized", `{"v":1,"system":[` + strings.Repeat("1,", 400) + `]}`, http.StatusRequestEntityTooLarge},
	} {
		r := httptest.NewRequest(http.MethodPost, "/v1/steady-hull", strings.NewReader(tc.body))
		w := httptest.NewRecorder()
		s.Handler().ServeHTTP(w, r)
		if w.Code != tc.status {
			t.Errorf("%s: status = %d, want %d", tc.name, w.Code, tc.status)
		}
		if e := decodeErr(t, w.Body.Bytes()); e.Code != "bad_request" {
			t.Errorf("%s: code = %q, want bad_request", tc.name, e.Code)
		}
	}
}

func TestDrainingRejects(t *testing.T) {
	s := New(Config{})
	s.SetDraining(true)
	status, body := post(t, s.Handler(), "steady-hull", endpointCases(t)["steady-hull"])
	if status != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", status)
	}
	if e := decodeErr(t, body); e.Code != "draining" {
		t.Errorf("code = %q, want draining", e.Code)
	}
	hr := httptest.NewRequest(http.MethodGet, "/healthz", nil)
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, hr)
	if w.Code != http.StatusServiceUnavailable {
		t.Errorf("healthz while draining = %d, want 503", w.Code)
	}
}

func TestQueueFullRejectsWith429(t *testing.T) {
	s := New(Config{MaxInFlight: 1, MaxQueue: 1})
	// Occupy the execution slot and the whole wait queue by hand; the
	// next request must bounce immediately with 429.
	s.sem <- struct{}{}
	s.queue <- struct{}{}
	s.queue <- struct{}{}
	defer func() { <-s.sem; <-s.queue; <-s.queue }()
	status, body := post(t, s.Handler(), "steady-hull", endpointCases(t)["steady-hull"])
	if status != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", status)
	}
	if e := decodeErr(t, body); e.Code != "queue_full" {
		t.Errorf("code = %q, want queue_full", e.Code)
	}
}

func TestDeadlineWhileQueued(t *testing.T) {
	s := New(Config{MaxInFlight: 1})
	s.sem <- struct{}{} // all execution slots busy: the request queues
	defer func() { <-s.sem }()
	req := endpointCases(t)["steady-hull"]
	req.Options.DeadlineMs = 25
	start := time.Now()
	status, body := post(t, s.Handler(), "steady-hull", req)
	if status != http.StatusServiceUnavailable {
		t.Fatalf("status = %d after %v, want 503", status, time.Since(start))
	}
	if e := decodeErr(t, body); e.Code != "deadline_queued" {
		t.Errorf("code = %q, want deadline_queued", e.Code)
	}
	if len(s.queue) != 0 {
		t.Errorf("timed-out request left %d entries in the queue", len(s.queue))
	}
}

// TestCancelledRequestFreesMachine: a request whose context dies during
// execution still returns its machine to the pool, and the next request
// reuses it.
func TestCancelledRequestFreesMachine(t *testing.T) {
	s := New(Config{})
	ctx, cancel := context.WithCancel(context.Background())
	s.hookRunning = cancel // cancel after checkout, before the algorithm runs
	req := endpointCases(t)["steady-hull"]
	body, err := json.Marshal(req)
	check(t, err)
	r := httptest.NewRequest(http.MethodPost, "/v1/steady-hull", bytes.NewReader(body)).WithContext(ctx)
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, r)
	if w.Code != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504", w.Code)
	}
	if e := decodeErr(t, w.Body.Bytes()); e.Code != "deadline_exceeded" {
		t.Errorf("code = %q, want deadline_exceeded", e.Code)
	}
	if got := s.Pool().Stats(); got.Idle != 1 {
		t.Fatalf("cancelled request leaked its machine: %d idle, want 1", got.Idle)
	}
	if s.InFlight() != 0 {
		t.Fatalf("cancelled request leaked its execution slot")
	}
	s.hookRunning = nil
	status, b := post(t, s.Handler(), "steady-hull", req)
	if resp := decodeOK(t, status, b); !resp.Pool.Hit {
		t.Error("follow-up request missed the machine the cancelled request should have freed")
	}
}

func TestCancelledBeforeExecution(t *testing.T) {
	s := New(Config{})
	ctx, cancel := context.WithCancel(context.Background())
	s.hookAdmitted = cancel // cancel after admission, before checkout
	req := endpointCases(t)["steady-hull"]
	body, err := json.Marshal(req)
	check(t, err)
	r := httptest.NewRequest(http.MethodPost, "/v1/steady-hull", bytes.NewReader(body)).WithContext(ctx)
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, r)
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", w.Code)
	}
	if s.InFlight() != 0 || len(s.queue) != 0 {
		t.Error("pre-execution cancellation leaked admission slots")
	}
}

// --- observability -------------------------------------------------------

func TestHealthz(t *testing.T) {
	s := New(Config{})
	r := httptest.NewRequest(http.MethodGet, "/healthz", nil)
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, r)
	if w.Code != http.StatusOK || w.Body.String() != "ok\n" {
		t.Errorf("healthz = %d %q, want 200 ok", w.Code, w.Body.String())
	}
}

func TestMetricsEndpoint(t *testing.T) {
	s := New(Config{})
	req := endpointCases(t)["steady-hull"]
	for i := 0; i < 2; i++ {
		st, b := post(t, s.Handler(), "steady-hull", req)
		decodeOK(t, st, b)
	}
	r := httptest.NewRequest(http.MethodGet, "/metrics", nil)
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, r)
	out := w.Body.String()
	for _, want := range []string{
		`dyncgd_requests_total{algorithm="steady-hull",code="200"} 2`,
		`dyncgd_request_latency_us_count{algorithm="steady-hull"} 2`,
		`dyncgd_pool_checkouts_total{result="hit"} 1`,
		`dyncgd_pool_checkouts_total{result="miss"} 1`,
		"dyncgd_pool_idle 1",
		"dyncgd_inflight 0",
		"dyncgd_draining 0",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics output missing %q:\n%s", want, out)
		}
	}
}
