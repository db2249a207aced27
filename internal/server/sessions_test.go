package server

import (
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"dyncg/internal/api"
	"dyncg/internal/motion"
	"dyncg/internal/poly"
	"dyncg/internal/session"
	"dyncg/internal/topo"
)

func wirePoint(p motion.Point) [][]float64 {
	coords := make([][]float64, len(p.Coord))
	for j, c := range p.Coord {
		coords[j] = append([]float64(nil), c...)
	}
	return coords
}

// sessionCall marshals a request body (nil for bodyless methods), sends
// it, and returns the status and body.
func sessionCall(t *testing.T, h http.Handler, method, path string, body any) (int, []byte) {
	t.Helper()
	var r *http.Request
	if body != nil {
		raw, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		r = httptest.NewRequest(method, path, strings.NewReader(string(raw)))
	} else {
		r = httptest.NewRequest(method, path, nil)
	}
	w := httptest.NewRecorder()
	h.ServeHTTP(w, r)
	return w.Code, w.Body.Bytes()
}

func createSession(t *testing.T, h http.Handler, req api.SessionCreateRequest) api.SessionCreateResponse {
	t.Helper()
	st, body := sessionCall(t, h, http.MethodPost, "/v1/sessions", req)
	if st != http.StatusOK {
		t.Fatalf("create: status = %d, body %s", st, body)
	}
	var resp api.SessionCreateResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatalf("create: %v (%s)", err, body)
	}
	if resp.Session.ID == "" {
		t.Fatalf("create: empty session id (%s)", body)
	}
	return resp
}

// TestSessionRoundTripMatchesOneShot drives create → update → query →
// delete over the handler and demands the maintained result match the
// one-shot endpoint run on the session's final system, byte for byte on
// the wire. The update batch uses inserts and retargets only, so the
// session's stable IDs coincide with the one-shot point indices.
func TestSessionRoundTripMatchesOneShot(t *testing.T) {
	s := New(Config{})
	h := s.Handler()
	sys := motion.Random(rand.New(rand.NewSource(21)), 6, 1, 2, 10)

	created := createSession(t, h, api.SessionCreateRequest{
		V:         api.Version,
		Algorithm: "closest-point-sequence",
		System:    wireSystem(sys),
		Origin:    0,
		Options:   api.SessionOptions{Capacity: 12},
	})
	id := created.Session.ID
	if got := created.Session.Points; len(got) != 6 {
		t.Fatalf("created session has points %v", got)
	}
	if created.Session.Origin != 0 || created.Session.Capacity != 12 {
		t.Fatalf("session info %+v", created.Session)
	}

	// One batch: two inserts and a retarget (IDs stay dense, so the final
	// population equals a 8-point one-shot system in ID order).
	r := rand.New(rand.NewSource(22))
	extra := motion.Random(r, 3, 1, 2, 10)
	var upResp api.SessionUpdateResponse
	st, body := sessionCall(t, h, http.MethodPost, "/v1/sessions/"+id+"/update", api.SessionUpdateRequest{
		V: api.Version,
		Deltas: []api.SessionDelta{
			{Op: "insert", Point: wirePoint(extra.Points[0])},
			{Op: "insert", Point: wirePoint(extra.Points[1])},
			{Op: "retarget", ID: 3, Point: wirePoint(extra.Points[2])},
		},
	})
	if st != http.StatusOK {
		t.Fatalf("update: status = %d, body %s", st, body)
	}
	if err := json.Unmarshal(body, &upResp); err != nil {
		t.Fatal(err)
	}
	if want := []int{6, 7}; len(upResp.Inserted) != 2 || upResp.Inserted[0] != want[0] || upResp.Inserted[1] != want[1] {
		t.Fatalf("inserted = %v, want %v", upResp.Inserted, want)
	}
	if upResp.DirtyLeaves != 3 || upResp.MergedNodes == 0 {
		t.Fatalf("incremental work not reported: %+v", upResp)
	}
	if upResp.Stats.Time == 0 {
		t.Fatalf("update reported zero simulated cost")
	}
	if upResp.Session.Updates != 1 {
		t.Fatalf("updates counter = %d", upResp.Session.Updates)
	}

	// Query returns the same result; ?verify=1 audits bit-identity
	// against a from-scratch re-derivation on the session's machine.
	st, qBody := sessionCall(t, h, http.MethodGet, "/v1/sessions/"+id+"/query?verify=1", nil)
	if st != http.StatusOK {
		t.Fatalf("query: status = %d, body %s", st, qBody)
	}
	var qResp struct {
		Result   json.RawMessage `json:"result"`
		Verified *bool           `json:"verified"`
	}
	if err := json.Unmarshal(qBody, &qResp); err != nil {
		t.Fatal(err)
	}
	if qResp.Verified == nil || !*qResp.Verified {
		t.Fatalf("verify=1 did not confirm bit-identity: %s", qBody)
	}

	// The one-shot endpoint on the session's final system must agree.
	finalSys := wireSystem(sys)
	finalSys = append(finalSys, wirePoint(extra.Points[0]), wirePoint(extra.Points[1]))
	finalSys[3] = wirePoint(extra.Points[2])
	oneStatus, oneBody := post(t, h, "closest-point-sequence", api.Request{
		V: api.Version, System: finalSys, Origin: 0,
	})
	oneShot := decodeOK(t, oneStatus, oneBody)
	var upRaw struct {
		Result json.RawMessage `json:"result"`
	}
	if err := json.Unmarshal(body, &upRaw); err != nil {
		t.Fatal(err)
	}
	if string(upRaw.Result) != string(oneShot.Result) {
		t.Fatalf("session result diverged from one-shot\n session: %s\n one-shot: %s", upRaw.Result, oneShot.Result)
	}
	if string(qResp.Result) != string(upRaw.Result) {
		t.Fatalf("query result differs from update result")
	}

	// Delete releases the machine back to the pool; the session is gone.
	idleBefore := s.Pool().Stats().Idle
	st, dBody := sessionCall(t, h, http.MethodDelete, "/v1/sessions/"+id, nil)
	if st != http.StatusOK {
		t.Fatalf("delete: status = %d, body %s", st, dBody)
	}
	var dResp api.SessionDeleteResponse
	if err := json.Unmarshal(dBody, &dResp); err != nil {
		t.Fatal(err)
	}
	if dResp.ID != id || dResp.Updates != 1 {
		t.Fatalf("delete response %+v", dResp)
	}
	if st, _ := sessionCall(t, h, http.MethodGet, "/v1/sessions/"+id+"/query", nil); st != http.StatusNotFound {
		t.Fatalf("query after delete: status = %d", st)
	}
	if s.Sessions().Len() != 0 {
		t.Fatalf("registry still holds %d sessions", s.Sessions().Len())
	}
	if got := s.Pool().Stats().Idle; got != idleBefore+1 {
		t.Fatalf("pool idle = %d after delete, want %d (released session machine)", got, idleBefore+1)
	}
}

// TestSessionEveryAlgorithm creates one session per session algorithm on
// each topology and verifies the maintained answer after an update via
// the server's own ?verify=1 audit.
func TestSessionEveryAlgorithm(t *testing.T) {
	s := New(Config{})
	h := s.Handler()
	sys := motion.Random(rand.New(rand.NewSource(31)), 5, 1, 2, 10)
	extra := motion.Random(rand.New(rand.NewSource(32)), 1, 1, 2, 10)
	for _, topo := range []string{"hypercube", "mesh"} {
		for _, algo := range []string{
			"closest-point-sequence", "farthest-point-sequence",
			"closest-pair-sequence", "farthest-pair-sequence",
			"smallest-hypercube-edge", "smallest-ever-hypercube",
			"containment-intervals",
		} {
			t.Run(topo+"/"+algo, func(t *testing.T) {
				req := api.SessionCreateRequest{
					V:         api.Version,
					Algorithm: algo,
					System:    wireSystem(sys),
					Options:   api.SessionOptions{Topology: topo, Capacity: 8},
				}
				if algo == "containment-intervals" {
					req.Dims = []float64{30, 30}
				}
				created := createSession(t, h, req)
				id := created.Session.ID
				st, body := sessionCall(t, h, http.MethodPost, "/v1/sessions/"+id+"/update", api.SessionUpdateRequest{
					V: api.Version,
					Deltas: []api.SessionDelta{
						{Op: "insert", Point: wirePoint(extra.Points[0])},
						{Op: "delete", ID: 2},
					},
				})
				if st != http.StatusOK {
					t.Fatalf("update: status = %d, body %s", st, body)
				}
				st, qBody := sessionCall(t, h, http.MethodGet, "/v1/sessions/"+id+"/query?verify=1", nil)
				if st != http.StatusOK {
					t.Fatalf("query: status = %d, body %s", st, qBody)
				}
				var qResp struct {
					Verified *bool `json:"verified"`
				}
				if err := json.Unmarshal(qBody, &qResp); err != nil {
					t.Fatal(err)
				}
				if qResp.Verified == nil || !*qResp.Verified {
					t.Fatalf("maintained answer failed the verify audit: %s", qBody)
				}
				if st, _ := sessionCall(t, h, http.MethodDelete, "/v1/sessions/"+id, nil); st != http.StatusOK {
					t.Fatalf("delete failed")
				}
			})
		}
	}
}

func TestSessionErrors(t *testing.T) {
	s := New(Config{MaxSessions: 1})
	h := s.Handler()
	sys := motion.Random(rand.New(rand.NewSource(41)), 4, 1, 2, 10)
	mk := func(mod func(*api.SessionCreateRequest)) api.SessionCreateRequest {
		req := api.SessionCreateRequest{
			V:         api.Version,
			Algorithm: "closest-point-sequence",
			System:    wireSystem(sys),
		}
		if mod != nil {
			mod(&req)
		}
		return req
	}

	cases := []struct {
		name   string
		req    api.SessionCreateRequest
		status int
		code   api.ErrorCode
	}{
		{"unknown algorithm", mk(func(r *api.SessionCreateRequest) { r.Algorithm = "steady-hull" }),
			http.StatusBadRequest, "unknown_algorithm"},
		{"bad version", mk(func(r *api.SessionCreateRequest) { r.V = 9 }),
			http.StatusBadRequest, "bad_version"},
		{"bad topology", mk(func(r *api.SessionCreateRequest) { r.Options.Topology = "ccc" }),
			http.StatusBadRequest, "bad_topology"},
		{"origin out of range", mk(func(r *api.SessionCreateRequest) { r.Origin = 40 }),
			http.StatusBadRequest, "bad_system"},
		{"capacity too small", mk(func(r *api.SessionCreateRequest) { r.Options.Capacity = 2 }),
			http.StatusBadRequest, "bad_system"},
	}
	for _, tc := range cases {
		st, body := sessionCall(t, h, http.MethodPost, "/v1/sessions", tc.req)
		if st != tc.status {
			t.Fatalf("%s: status = %d, want %d (%s)", tc.name, st, tc.status, body)
		}
		if e := decodeErr(t, body); e.Code != tc.code {
			t.Fatalf("%s: code = %q, want %q", tc.name, e.Code, tc.code)
		}
	}
	// Rejected creates must not leak sessions or pin machines.
	if s.Sessions().Len() != 0 {
		t.Fatalf("rejected creates left %d sessions", s.Sessions().Len())
	}

	created := createSession(t, h, mk(nil))
	id := created.Session.ID

	// Session capacity (MaxSessions: 1).
	st, body := sessionCall(t, h, http.MethodPost, "/v1/sessions", mk(nil))
	if st != http.StatusTooManyRequests || decodeErr(t, body).Code != "too_many_sessions" {
		t.Fatalf("session limit: status = %d, body %s", st, body)
	}

	// Unknown session IDs.
	for _, call := range []struct {
		method, path string
		body         any
	}{
		{http.MethodPost, "/v1/sessions/s-404-beef/update", api.SessionUpdateRequest{V: api.Version,
			Deltas: []api.SessionDelta{{Op: "delete", ID: 0}}}},
		{http.MethodGet, "/v1/sessions/s-404-beef/query", nil},
		{http.MethodDelete, "/v1/sessions/s-404-beef", nil},
	} {
		st, body := sessionCall(t, h, call.method, call.path, call.body)
		if st != http.StatusNotFound || decodeErr(t, body).Code != "no_session" {
			t.Fatalf("%s %s: status = %d, body %s", call.method, call.path, st, body)
		}
	}

	// An invalid batch is atomic and reports bad_system; the session
	// stays usable.
	st, body = sessionCall(t, h, http.MethodPost, "/v1/sessions/"+id+"/update", api.SessionUpdateRequest{
		V:      api.Version,
		Deltas: []api.SessionDelta{{Op: "delete", ID: 0}}, // the origin
	})
	if st != http.StatusBadRequest || decodeErr(t, body).Code != "bad_system" {
		t.Fatalf("origin delete: status = %d, body %s", st, body)
	}
	// Batches that exceed the session's capacity report too_few_pes.
	var over []api.SessionDelta
	for i := 0; i < 10; i++ {
		over = append(over, api.SessionDelta{Op: "insert",
			Point: [][]float64{{float64(100 + i)}, {float64(i)}}})
	}
	st, body = sessionCall(t, h, http.MethodPost, "/v1/sessions/"+id+"/update",
		api.SessionUpdateRequest{V: api.Version, Deltas: over})
	if st != http.StatusUnprocessableEntity || decodeErr(t, body).Code != "too_few_pes" {
		t.Fatalf("over capacity: status = %d, body %s", st, body)
	}
	if st, _ := sessionCall(t, h, http.MethodGet, "/v1/sessions/"+id+"/query", nil); st != http.StatusOK {
		t.Fatalf("session unusable after rejected batches")
	}
}

// TestSessionOversizedPEsRejected is TestOversizedPEsRejected for
// session creates.
func TestSessionOversizedPEsRejected(t *testing.T) {
	s := New(Config{})
	h := s.Handler()
	sys := motion.Random(rand.New(rand.NewSource(43)), 4, 1, 2, 10)
	for _, tp := range []string{"mesh", "hypercube"} {
		t.Run(tp, func(t *testing.T) {
			req := api.SessionCreateRequest{
				V:         api.Version,
				Algorithm: "closest-point-sequence",
				System:    wireSystem(sys),
				Options:   api.SessionOptions{Topology: tp, PEs: oversizedPEs},
			}
			st, body := answerWithin(t, h, "/v1/sessions", req)
			if st != http.StatusUnprocessableEntity || decodeErr(t, body).Code != "too_few_pes" {
				t.Fatalf("status = %d, body %s; want 422 too_few_pes", st, body)
			}
		})
	}
}

// TestSessionDefaultsSizeTheMachine: a create that leaves capacity and
// max_degree to the engine (capacity 0 → max(2n, 8), max_degree 0 →
// max(K, 1)) gets a machine sized for the values the engine resolved.
func TestSessionDefaultsSizeTheMachine(t *testing.T) {
	s := New(Config{})
	h := s.Handler()
	for _, sys := range []*motion.System{
		motion.Random(rand.New(rand.NewSource(44)), 3, 1, 2, 10), // 3 points
		motion.Random(rand.New(rand.NewSource(45)), 5, 0, 2, 10), // degree 0
	} {
		for _, tp := range []string{"hypercube", "mesh"} {
			for _, algo := range []session.Algo{session.ClosestPointSeq, session.ClosestPairSeq} {
				created := createSession(t, h, api.SessionCreateRequest{
					V:         api.Version,
					Algorithm: string(algo),
					System:    wireSystem(sys),
					Options:   api.SessionOptions{Topology: tp, Capacity: 0, MaxDegree: 0},
				})
				info := created.Session
				if info.Capacity != max(2*sys.N(), 8) || info.MaxDegree != 1 {
					t.Errorf("%s/%s n=%d k=%d: capacity %d, max_degree %d", tp, algo, sys.N(), sys.K, info.Capacity, info.MaxDegree)
				}
				want, err := topo.Size(topo.Topology(tp), session.PEs(tp, algo, info.Capacity, info.MaxDegree))
				if err != nil {
					t.Fatal(err)
				}
				if info.Machine.PEs != want {
					t.Errorf("%s/%s n=%d k=%d: machine.pes = %d, want %d", tp, algo, sys.N(), sys.K, info.Machine.PEs, want)
				}
				if st, _ := sessionCall(t, h, http.MethodDelete, "/v1/sessions/"+info.ID, nil); st != http.StatusOK {
					t.Fatalf("delete failed")
				}
			}
		}
	}
}

// TestSessionTTLEviction: an idle session is swept lazily from a serving
// path, its machine returns to the pool, and the eviction is counted.
func TestSessionTTLEviction(t *testing.T) {
	s := New(Config{SessionTTL: 30 * time.Millisecond})
	h := s.Handler()
	sys := motion.Random(rand.New(rand.NewSource(51)), 4, 1, 2, 10)
	created := createSession(t, h, api.SessionCreateRequest{
		V: api.Version, Algorithm: "smallest-hypercube-edge", System: wireSystem(sys),
	})
	if idle := s.Pool().Stats().Idle; idle != 0 {
		t.Fatalf("pinned machine counted idle: %d", idle)
	}
	time.Sleep(60 * time.Millisecond)
	// Any serving-path request sweeps; /metrics is one of them.
	st, metrics := sessionCall(t, h, http.MethodGet, "/metrics", nil)
	if st != http.StatusOK {
		t.Fatalf("metrics: status = %d", st)
	}
	if !strings.Contains(string(metrics), "dyncg_session_evictions_total 1") {
		t.Fatalf("eviction not counted:\n%s", metrics)
	}
	if !strings.Contains(string(metrics), "dyncg_sessions_active 0") {
		t.Fatalf("evicted session still active:\n%s", metrics)
	}
	if st, _ := sessionCall(t, h, http.MethodGet, "/v1/sessions/"+created.Session.ID+"/query", nil); st != http.StatusNotFound {
		t.Fatalf("evicted session still answers: status = %d", st)
	}
	if idle := s.Pool().Stats().Idle; idle != 1 {
		t.Fatalf("evicted session's machine not returned to the pool: idle = %d", idle)
	}
}

// TestSessionMetricsExposed: the issue's dyncg_-prefixed metric family
// appears on /metrics with the update counter and latency histogram
// moving.
func TestSessionMetricsExposed(t *testing.T) {
	s := New(Config{})
	h := s.Handler()
	sys := motion.Random(rand.New(rand.NewSource(61)), 4, 1, 2, 10)
	created := createSession(t, h, api.SessionCreateRequest{
		V: api.Version, Algorithm: "closest-point-sequence", System: wireSystem(sys),
	})
	pt := motion.NewPoint(poly.New(55), poly.New(1, 1))
	st, _ := sessionCall(t, h, http.MethodPost, "/v1/sessions/"+created.Session.ID+"/update",
		api.SessionUpdateRequest{V: api.Version,
			Deltas: []api.SessionDelta{{Op: "insert", Point: wirePoint(pt)}}})
	if st != http.StatusOK {
		t.Fatalf("update: status = %d", st)
	}
	_, metrics := sessionCall(t, h, http.MethodGet, "/metrics", nil)
	for _, want := range []string{
		"dyncg_sessions_active 1",
		"dyncg_session_updates_total 1",
		"dyncg_session_evictions_total 0",
		`dyncg_session_update_latency_us_bucket{le="+Inf"} 1`,
		"dyncg_session_update_latency_us_count 1",
	} {
		if !strings.Contains(string(metrics), want) {
			t.Errorf("metrics missing %q:\n%s", want, metrics)
		}
	}
}

// TestSessionChurnPoolAccounting is the issue's no-leak battery: cycling
// 1000 create/update/delete sessions must leave the pool at a steady
// size (the machines are reused, not accreted) and must not grow the
// goroutine count (the registry has no janitor goroutine).
func TestSessionChurnPoolAccounting(t *testing.T) {
	if testing.Short() {
		t.Skip("churn battery skipped in -short mode")
	}
	s := New(Config{})
	h := s.Handler()
	sys := motion.Random(rand.New(rand.NewSource(71)), 4, 1, 2, 10)
	req := api.SessionCreateRequest{
		V: api.Version, Algorithm: "closest-point-sequence", System: wireSystem(sys),
		Options: api.SessionOptions{Capacity: 8},
	}
	pt := motion.NewPoint(poly.New(77, 2), poly.New(-3))
	up := api.SessionUpdateRequest{V: api.Version,
		Deltas: []api.SessionDelta{{Op: "insert", Point: wirePoint(pt)}}}

	// Warm up one cycle so the pool holds the class's machine, then
	// measure from the steady state.
	created := createSession(t, h, req)
	sessionCall(t, h, http.MethodDelete, "/v1/sessions/"+created.Session.ID, nil)
	runtime.GC()
	goroutinesBefore := runtime.NumGoroutine()
	idleBefore := s.Pool().Stats().Idle

	const cycles = 1000
	for i := 0; i < cycles; i++ {
		created := createSession(t, h, req)
		if st, body := sessionCall(t, h, http.MethodPost,
			"/v1/sessions/"+created.Session.ID+"/update", up); st != http.StatusOK {
			t.Fatalf("cycle %d: update status %d, body %s", i, st, body)
		}
		if st, _ := sessionCall(t, h, http.MethodDelete,
			"/v1/sessions/"+created.Session.ID, nil); st != http.StatusOK {
			t.Fatalf("cycle %d: delete failed", i)
		}
	}

	if got := s.Sessions().Len(); got != 0 {
		t.Fatalf("%d sessions leaked", got)
	}
	if idleAfter := s.Pool().Stats().Idle; idleAfter != idleBefore {
		t.Fatalf("pool idle drifted across churn: %d → %d", idleBefore, idleAfter)
	}
	ps := s.Pool().Stats()
	if ps.Hits < cycles {
		t.Fatalf("churn did not reuse the pooled machine: hits = %d over %d cycles", ps.Hits, cycles)
	}
	runtime.GC()
	if goroutinesAfter := runtime.NumGoroutine(); goroutinesAfter > goroutinesBefore+2 {
		t.Fatalf("goroutines grew across churn: %d → %d", goroutinesBefore, goroutinesAfter)
	}
}
