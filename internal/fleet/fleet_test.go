package fleet

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"dyncg/internal/api"
	"dyncg/internal/motion"
	"dyncg/internal/replaylog"
	"dyncg/internal/server"
)

// wireSystem converts a system to its wire form.
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

// endpointCases is one request per one-shot serving endpoint — the
// same coverage the in-process differential battery uses.
func endpointCases() map[string]api.Request {
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

// flaky wraps a worker handler with a kill switch: while dead, every
// request aborts its connection — exactly what a SIGKILLed process
// looks like to the front door's HTTP client.
type flaky struct {
	h    http.Handler
	dead atomic.Bool
}

func (f *flaky) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if f.dead.Load() {
		panic(http.ErrAbortHandler)
	}
	f.h.ServeHTTP(w, r)
}

// testFleet is a 3-member fleet over in-process httptest workers.
type testFleet struct {
	fd      *FrontDoor
	workers []*flaky
	servers []*server.Server
}

// newTestFleet builds n workers (pooling disabled, so responses carry
// no pool-state dependence) behind a front door. mod edits the
// front-door config before construction.
func newTestFleet(t *testing.T, n int, mod func(*Config)) *testFleet {
	t.Helper()
	ids := make([]string, n)
	for i := range ids {
		ids[i] = fmt.Sprintf("m%d", i)
	}
	tf := &testFleet{}
	members := make([]Member, n)
	for i := 0; i < n; i++ {
		srv := server.New(server.Config{MemberID: ids[i], FleetIDs: ids, PoolCap: -1})
		fl := &flaky{h: srv.Handler()}
		ts := httptest.NewServer(fl)
		t.Cleanup(ts.Close)
		tf.workers = append(tf.workers, fl)
		tf.servers = append(tf.servers, srv)
		members[i] = Member{ID: ids[i], URL: ts.URL}
	}
	cfg := Config{Members: members, ProbeInterval: -1}
	if mod != nil {
		mod(&cfg)
	}
	fd, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tf.fd = fd
	return tf
}

func (tf *testFleet) do(t *testing.T, method, path string, body []byte) *httptest.ResponseRecorder {
	t.Helper()
	var r *http.Request
	if body != nil {
		r = httptest.NewRequest(method, path, bytes.NewReader(body))
	} else {
		r = httptest.NewRequest(method, path, nil)
	}
	w := httptest.NewRecorder()
	tf.fd.Handler().ServeHTTP(w, r)
	return w
}

func singleDo(t *testing.T, h http.Handler, method, path string, body []byte) *httptest.ResponseRecorder {
	t.Helper()
	var r *http.Request
	if body != nil {
		r = httptest.NewRequest(method, path, bytes.NewReader(body))
	} else {
		r = httptest.NewRequest(method, path, nil)
	}
	w := httptest.NewRecorder()
	h.ServeHTTP(w, r)
	return w
}

// statelessTrace is the full stateless request mix: every endpoint,
// a fault-injected run (seeded, so deterministic), and the error
// paths (invalid JSON, bad version, unknown algorithm, bad topology).
func statelessTrace(t *testing.T) []struct {
	algo string
	body []byte
} {
	t.Helper()
	var trace []struct {
		algo string
		body []byte
	}
	add := func(algo string, v any) {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		trace = append(trace, struct {
			algo string
			body []byte
		}{algo, b})
	}
	for name, req := range endpointCases() {
		add(name, req)
	}
	faulted := endpointCases()["closest-point-sequence"]
	faulted.Options.Faults = "transient=0.05,retries=3"
	faulted.Options.FaultSeed = 7
	add("closest-point-sequence", faulted)

	badVersion := endpointCases()["steady-hull"]
	badVersion.V = 99
	add("steady-hull", badVersion)

	badTopo := endpointCases()["steady-hull"]
	badTopo.Options.Topology = "torus"
	add("steady-hull", badTopo)

	add("no-such-algorithm", endpointCases()["steady-hull"])

	trace = append(trace, struct {
		algo string
		body []byte
	}{"steady-hull", []byte(`{"v":1,`)})
	return trace
}

// TestFleetMatchesSingleServer: every stateless /v1/* request served
// through a 3-member fleet returns bytes identical to a single
// in-process server — process distribution must be invisible on the
// wire.
func TestFleetMatchesSingleServer(t *testing.T) {
	tf := newTestFleet(t, 3, nil)
	single := server.New(server.Config{PoolCap: -1})
	for _, tc := range statelessTrace(t) {
		fleetW := tf.do(t, http.MethodPost, "/v1/"+tc.algo, tc.body)
		singleW := singleDo(t, single.Handler(), http.MethodPost, "/v1/"+tc.algo, tc.body)
		if fleetW.Code != singleW.Code {
			t.Errorf("%s: fleet status %d, single %d (%s)", tc.algo, fleetW.Code, singleW.Code, fleetW.Body)
			continue
		}
		if !bytes.Equal(fleetW.Body.Bytes(), singleW.Body.Bytes()) {
			t.Errorf("%s: fleet bytes differ from single server:\n  fleet:  %s\n  single: %s",
				tc.algo, fleetW.Body, singleW.Body)
		}
		if src := fleetW.Header().Get("X-Dyncg-Source"); fleetW.Code == http.StatusOK && src != "computed" {
			t.Errorf("%s: X-Dyncg-Source = %q, want computed", tc.algo, src)
		}
		if fleetW.Header().Get("X-Dyncg-Member") == "" {
			t.Errorf("%s: response carries no X-Dyncg-Member", tc.algo)
		}
	}
}

// TestFleetRoutingDeterminism: identical requests land on the same
// member every time.
func TestFleetRoutingDeterminism(t *testing.T) {
	tf := newTestFleet(t, 3, nil)
	body, _ := json.Marshal(endpointCases()["steady-hull"])
	first := tf.do(t, http.MethodPost, "/v1/steady-hull", body).Header().Get("X-Dyncg-Member")
	for i := 0; i < 5; i++ {
		if got := tf.do(t, http.MethodPost, "/v1/steady-hull", body).Header().Get("X-Dyncg-Member"); got != first {
			t.Fatalf("repeat %d routed to %q, first to %q", i, got, first)
		}
	}
}

// TestFleetSessionLifecycle: create → update → query → delete through
// the front door; every follow-up request routes to the member that
// minted the ID.
func TestFleetSessionLifecycle(t *testing.T) {
	tf := newTestFleet(t, 3, nil)
	sys := motion.Random(rand.New(rand.NewSource(21)), 8, 1, 2, 10)
	createBody, _ := json.Marshal(map[string]any{
		"v": api.Version, "algorithm": "closest-point-sequence", "system": wireSystem(sys),
	})
	w := tf.do(t, http.MethodPost, "/v1/sessions", createBody)
	if w.Code != http.StatusOK {
		t.Fatalf("create: %d: %s", w.Code, w.Body)
	}
	var created struct {
		Session struct {
			ID string `json:"id"`
		} `json:"session"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &created); err != nil {
		t.Fatal(err)
	}
	id := created.Session.ID
	home := tf.fd.ring.Lookup(id)
	if minted := w.Header().Get("X-Dyncg-Member"); minted != home {
		t.Fatalf("session %q minted by %q but homes to %q", id, minted, home)
	}
	if !strings.HasPrefix(id, "s-"+home+"-") {
		t.Errorf("session ID %q not salted with its home member %q", id, home)
	}

	updBody, _ := json.Marshal(map[string]any{
		"v": api.Version,
		"deltas": []map[string]any{
			{"op": "insert", "point": [][]float64{{3, -1}, {-4, 1}}},
		},
	})
	w = tf.do(t, http.MethodPost, "/v1/sessions/"+id+"/update", updBody)
	if w.Code != http.StatusOK {
		t.Fatalf("update: %d: %s", w.Code, w.Body)
	}
	if got := w.Header().Get("X-Dyncg-Member"); got != home {
		t.Errorf("update served by %q, want home %q", got, home)
	}
	w = tf.do(t, http.MethodGet, "/v1/sessions/"+id+"/query?verify=1", nil)
	if w.Code != http.StatusOK || !bytes.Contains(w.Body.Bytes(), []byte(`"verified":true`)) {
		t.Fatalf("verified query: %d: %s", w.Code, w.Body)
	}
	w = tf.do(t, http.MethodDelete, "/v1/sessions/"+id, nil)
	if w.Code != http.StatusOK {
		t.Fatalf("delete: %d: %s", w.Code, w.Body)
	}
	w = tf.do(t, http.MethodGet, "/v1/sessions/"+id+"/query", nil)
	if w.Code != http.StatusNotFound {
		t.Fatalf("deleted session still answers: %d", w.Code)
	}
}

// TestFleetErrorsMatchSingleServer: error envelopes the front door
// produces itself (oversized bodies, read by the one shared body
// reader) or forwards from a worker (undecodable and wrong-version
// bodies, an unknown session ID) are byte-identical to a single
// server's.
func TestFleetErrorsMatchSingleServer(t *testing.T) {
	tf := newTestFleet(t, 3, func(c *Config) { c.MaxBody = 256 })
	single := server.New(server.Config{MaxBody: 256, PoolCap: -1})
	oversized := []byte(fmt.Sprintf(`{"v":1,"system":[%s]}`, strings.Repeat("1,", 400)))
	oversizedSession := []byte(fmt.Sprintf(`{"v":1,"algorithm":"closest-point-sequence","system":[%s]}`,
		strings.Repeat("1,", 400)))
	for _, tc := range []struct {
		method, path string
		body         []byte
		status       int
		code         api.ErrorCode
	}{
		{http.MethodPost, "/v1/steady-hull", oversized, http.StatusRequestEntityTooLarge, api.CodeBadRequest},
		{http.MethodPost, "/v1/sessions", oversizedSession, http.StatusRequestEntityTooLarge, api.CodeBadRequest},
		{http.MethodPost, "/v1/steady-hull", []byte("not json"), http.StatusBadRequest, api.CodeBadRequest},
		{http.MethodPost, "/v1/steady-hull", []byte(`{"v":2,"system":[[[0],[0]],[[1],[1]]]}`), http.StatusBadRequest, api.CodeBadVersion},
		{http.MethodGet, "/v1/sessions/s-99-deadbeef/query", nil, http.StatusNotFound, api.CodeNoSession},
	} {
		fleetW := tf.do(t, tc.method, tc.path, tc.body)
		singleW := singleDo(t, single.Handler(), tc.method, tc.path, tc.body)
		if fleetW.Code != tc.status || singleW.Code != tc.status {
			t.Errorf("%s %s: status fleet %d, single %d, want %d", tc.method, tc.path, fleetW.Code, singleW.Code, tc.status)
			continue
		}
		var e api.Error
		if err := json.Unmarshal(fleetW.Body.Bytes(), &e); err != nil || e.Code != tc.code {
			t.Errorf("%s %s: fleet envelope %s (err %v), want code %s", tc.method, tc.path, fleetW.Body, err, tc.code)
		}
		if !bytes.Equal(fleetW.Body.Bytes(), singleW.Body.Bytes()) {
			t.Errorf("%s %s: envelope differs:\n  fleet:  %s\n  single: %s", tc.method, tc.path, fleetW.Body, singleW.Body)
		}
	}
}

// TestFleetMemberKillRestart: with one member dead, stateless traffic
// keeps flowing with zero errors (bounded failover along the ring);
// sessions homed on the dead member answer 503 member_down; after the
// member returns and a probe sees it, traffic reaches it again.
func TestFleetMemberKillRestart(t *testing.T) {
	tf := newTestFleet(t, 3, nil)

	// Home a session on each member so at least one is orphaned by any
	// kill choice.
	sys := motion.Random(rand.New(rand.NewSource(22)), 8, 1, 2, 10)
	createBody, _ := json.Marshal(map[string]any{
		"v": api.Version, "algorithm": "closest-point-sequence", "system": wireSystem(sys),
	})
	homed := map[string]string{} // member → session ID
	for i := 0; i < 12 && len(homed) < 3; i++ {
		w := tf.do(t, http.MethodPost, "/v1/sessions", createBody)
		if w.Code != http.StatusOK {
			t.Fatalf("create %d: %d: %s", i, w.Code, w.Body)
		}
		var created struct {
			Session struct {
				ID string `json:"id"`
			} `json:"session"`
		}
		json.Unmarshal(w.Body.Bytes(), &created)
		homed[tf.fd.ring.Lookup(created.Session.ID)] = created.Session.ID
	}
	if len(homed) < 3 {
		t.Fatalf("could not home a session on every member: %v", homed)
	}

	// Kill m1.
	tf.workers[1].dead.Store(true)

	// Stateless traffic: zero errors while a member is down.
	for _, tc := range statelessTrace(t) {
		w := tf.do(t, http.MethodPost, "/v1/"+tc.algo, tc.body)
		if w.Code >= 500 && w.Code != http.StatusServiceUnavailable {
			t.Fatalf("%s: status %d during member outage: %s", tc.algo, w.Code, w.Body)
		}
		if w.Code == http.StatusServiceUnavailable {
			t.Fatalf("%s: stateless request rejected during single-member outage: %s", tc.algo, w.Body)
		}
	}
	// Creation still works: the dead member is skipped.
	if w := tf.do(t, http.MethodPost, "/v1/sessions", createBody); w.Code != http.StatusOK {
		t.Fatalf("create during outage: %d: %s", w.Code, w.Body)
	}

	// The orphaned session answers a typed member_down; sessions on
	// live members are untouched.
	w := tf.do(t, http.MethodGet, "/v1/sessions/"+homed["m1"]+"/query", nil)
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("orphaned session query: %d: %s", w.Code, w.Body)
	}
	var e api.Error
	if err := json.Unmarshal(w.Body.Bytes(), &e); err != nil {
		t.Fatal(err)
	}
	if e.Code != api.CodeMemberDown || e.Member != "m1" || e.Retryable {
		t.Fatalf("orphan envelope = %+v", e)
	}
	for _, m := range []string{"m0", "m2"} {
		if w := tf.do(t, http.MethodGet, "/v1/sessions/"+homed[m]+"/query", nil); w.Code != http.StatusOK {
			t.Fatalf("session on live member %s: %d: %s", m, w.Code, w.Body)
		}
	}

	// Restart: the member returns, a probe sees it, traffic resumes.
	tf.workers[1].dead.Store(false)
	tf.fd.Probe()
	if !tf.fd.members["m1"].up.Load() {
		t.Fatal("probe did not mark the returned member up")
	}
	if w := tf.do(t, http.MethodGet, "/v1/sessions/"+homed["m1"]+"/query", nil); w.Code != http.StatusOK {
		t.Fatalf("session after member return: %d: %s", w.Code, w.Body)
	}
}

// TestFleetBackgroundProbe: the prober started by Start marks a dead
// member down and re-admits it once it answers /healthz again; Close
// stops it.
func TestFleetBackgroundProbe(t *testing.T) {
	tf := newTestFleet(t, 3, func(c *Config) { c.ProbeInterval = 5 * time.Millisecond })
	tf.fd.Start()
	defer tf.fd.Close()
	waitUp := func(want bool) {
		t.Helper()
		for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
			if tf.fd.members["m1"].up.Load() == want {
				return
			}
		}
		t.Fatalf("prober never marked m1 up=%v", want)
	}
	tf.workers[1].dead.Store(true)
	waitUp(false)
	tf.workers[1].dead.Store(false)
	waitUp(true)
}

// TestFleetAllDown: every member dead → stateless requests answer a
// typed, retryable 503 no_members.
func TestFleetAllDown(t *testing.T) {
	tf := newTestFleet(t, 3, nil)
	for _, fl := range tf.workers {
		fl.dead.Store(true)
	}
	body, _ := json.Marshal(endpointCases()["steady-hull"])
	w := tf.do(t, http.MethodPost, "/v1/steady-hull", body)
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("status = %d", w.Code)
	}
	var e api.Error
	if err := json.Unmarshal(w.Body.Bytes(), &e); err != nil {
		t.Fatal(err)
	}
	if e.Code != api.CodeNoMembers || !e.Retryable {
		t.Fatalf("envelope = %+v", e)
	}
	if w := tf.do(t, http.MethodGet, "/healthz", nil); w.Code != http.StatusServiceUnavailable {
		t.Errorf("healthz with all members down = %d, want 503", w.Code)
	}
}

// TestFleetCacheAndCoalesce: the front-door cache serves a repeat
// without re-forwarding, byte-identical, with X-Dyncg-Source: cache.
func TestFleetCacheAndCoalesce(t *testing.T) {
	tf := newTestFleet(t, 3, func(c *Config) {
		c.CacheBytes = 1 << 20
		c.Coalesce = true
	})
	body, _ := json.Marshal(endpointCases()["collision-times"])
	first := tf.do(t, http.MethodPost, "/v1/collision-times", body)
	if first.Code != http.StatusOK {
		t.Fatalf("first: %d: %s", first.Code, first.Body)
	}
	repeat := tf.do(t, http.MethodPost, "/v1/collision-times", body)
	if repeat.Header().Get("X-Dyncg-Source") != "cache" {
		t.Fatalf("repeat source = %q, want cache", repeat.Header().Get("X-Dyncg-Source"))
	}
	if !bytes.Equal(first.Body.Bytes(), repeat.Body.Bytes()) {
		t.Fatal("cached bytes differ from computed bytes")
	}
	if st := tf.fd.rc.Stats(); st.Hits != 1 {
		t.Errorf("cache hits = %d, want 1", st.Hits)
	}
	// Fault-injected requests bypass the cache.
	faulted := endpointCases()["collision-times"]
	faulted.Options.Faults = "transient=0.05,retries=3"
	faulted.Options.FaultSeed = 3
	fb, _ := json.Marshal(faulted)
	f1 := tf.do(t, http.MethodPost, "/v1/collision-times", fb)
	f2 := tf.do(t, http.MethodPost, "/v1/collision-times", fb)
	if f1.Header().Get("X-Dyncg-Source") != "computed" || f2.Header().Get("X-Dyncg-Source") != "computed" {
		t.Error("faulted requests must never be cache hits")
	}
}

// TestFleetWorkersResolvedByWorker: a front door cannot know the
// GOMAXPROCS of the worker that will compute, so a request with
// workers < 0 is uncacheable there. Keyed as workers 1, its answer
// (machine.workers = the worker's GOMAXPROCS) would be served to a
// later workers:1 request from the cache.
func TestFleetWorkersResolvedByWorker(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	tf := newTestFleet(t, 3, func(c *Config) { c.CacheBytes = 1 << 20 })
	single := server.New(server.Config{PoolCap: -1})
	withWorkers := func(n int) []byte {
		req := endpointCases()["collision-times"]
		req.Options.Workers = n
		b, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	if w := tf.do(t, http.MethodPost, "/v1/collision-times", withWorkers(-1)); w.Code != http.StatusOK {
		t.Fatalf("workers:-1: %d: %s", w.Code, w.Body)
	}
	fleetW := tf.do(t, http.MethodPost, "/v1/collision-times", withWorkers(1))
	singleW := singleDo(t, single.Handler(), http.MethodPost, "/v1/collision-times", withWorkers(1))
	if src := fleetW.Header().Get("X-Dyncg-Source"); src == "cache" {
		t.Errorf("workers:1 after workers:-1 served from cache")
	}
	if !bytes.Equal(fleetW.Body.Bytes(), singleW.Body.Bytes()) {
		t.Errorf("workers:1 bytes differ from single server:\n  fleet:  %s\n  single: %s", fleetW.Body, singleW.Body)
	}
}

// TestFleetReplayLog: the front door records the fleet-wide stream on
// one hash chain, member-attributed; the chain verifies.
func TestFleetReplayLog(t *testing.T) {
	dir := t.TempDir()
	rlog, err := replaylog.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	tf := newTestFleet(t, 3, func(c *Config) { c.ReplayLog = rlog })
	for _, tc := range statelessTrace(t) {
		tf.do(t, http.MethodPost, "/v1/"+tc.algo, tc.body)
	}
	sys := motion.Random(rand.New(rand.NewSource(23)), 6, 1, 2, 10)
	createBody, _ := json.Marshal(map[string]any{
		"v": api.Version, "algorithm": "closest-point-sequence", "system": wireSystem(sys),
	})
	w := tf.do(t, http.MethodPost, "/v1/sessions", createBody)
	var created struct {
		Session struct {
			ID string `json:"id"`
		} `json:"session"`
	}
	json.Unmarshal(w.Body.Bytes(), &created)
	tf.do(t, http.MethodGet, "/v1/sessions/"+created.Session.ID+"/query", nil)
	tf.do(t, http.MethodDelete, "/v1/sessions/"+created.Session.ID, nil)
	if err := rlog.Close(); err != nil {
		t.Fatal(err)
	}

	recs, err := replaylog.ReadDir(dir)
	if err != nil {
		t.Fatalf("fleet replay chain broken: %v", err)
	}
	want := len(statelessTrace(t)) + 3
	got := 0
	for _, rec := range recs {
		if rec.Anchor {
			continue
		}
		got++
		if rec.Meta.Member == "" {
			t.Errorf("record %d (%s) has no member attribution", rec.Seq, rec.Path)
		}
	}
	if got != want {
		t.Errorf("recorded %d computation records, want %d", got, want)
	}
}

// TestFleetCluster: the ring roster with live stats, the ?key= probe,
// and member-down visibility.
func TestFleetCluster(t *testing.T) {
	tf := newTestFleet(t, 3, nil)
	w := tf.do(t, http.MethodGet, "/v1/cluster?key=s-m1-1-00000000", nil)
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d", w.Code)
	}
	var resp api.ClusterResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Mode != "fleet" || len(resp.Members) != 3 {
		t.Fatalf("mode=%q members=%d", resp.Mode, len(resp.Members))
	}
	for _, m := range resp.Members {
		if !m.Healthy || m.URL == "" {
			t.Errorf("member %+v not healthy with URL", m)
		}
	}
	if resp.Probe == nil || resp.Probe.Member != tf.fd.ring.Lookup("s-m1-1-00000000") {
		t.Fatalf("probe = %+v", resp.Probe)
	}
	tf.workers[2].dead.Store(true)
	tf.fd.Probe()
	w = tf.do(t, http.MethodGet, "/v1/cluster", nil)
	json.Unmarshal(w.Body.Bytes(), &resp)
	for _, m := range resp.Members {
		if m.ID == "m2" && m.Healthy {
			t.Error("dead member reported healthy")
		}
	}
}

// TestFleetMetrics: the aggregated exposition carries member-labelled
// worker series plus the front door's own counters.
func TestFleetMetrics(t *testing.T) {
	tf := newTestFleet(t, 3, func(c *Config) { c.CacheBytes = 1 << 20 })
	body, _ := json.Marshal(endpointCases()["steady-hull"])
	tf.do(t, http.MethodPost, "/v1/steady-hull", body)
	tf.do(t, http.MethodPost, "/v1/steady-hull", body) // cache hit
	w := tf.do(t, http.MethodGet, "/metrics", nil)
	text := w.Body.String()
	for _, want := range []string{
		`dyncgd_requests_total{member="`,
		`dyncg_fleet_member_up{member="m0"} 1`,
		`dyncg_fleet_rcache_hits_total 1`,
		"# TYPE dyncg_fleet_proxied_total counter",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	if n := strings.Count(text, "# TYPE dyncgd_requests_total counter"); n != 1 {
		t.Errorf("TYPE header for dyncgd_requests_total appears %d times, want 1", n)
	}
}

// TestLabelMember covers the exposition label-injection rewriting.
func TestLabelMember(t *testing.T) {
	for in, want := range map[string]string{
		`dyncgd_inflight 3`:                           `dyncgd_inflight{member="m0"} 3`,
		`dyncgd_requests_total{algorithm="x"} 5`:      `dyncgd_requests_total{member="m0",algorithm="x"} 5`,
		`dyncgd_pool_checkouts_total{result="hit"} 2`: `dyncgd_pool_checkouts_total{member="m0",result="hit"} 2`,
	} {
		if got := labelMember(in, "m0"); got != want {
			t.Errorf("labelMember(%q) = %q, want %q", in, got, want)
		}
	}
}
