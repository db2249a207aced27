package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dyncg/internal/api"
	"dyncg/internal/canon"
	"dyncg/internal/replaylog"
)

// postRec sends one request and returns the full recorder, for tests
// that assert headers as well as bodies.
func postRec(t *testing.T, h http.Handler, algo string, body []byte) *httptest.ResponseRecorder {
	t.Helper()
	r := httptest.NewRequest(http.MethodPost, "/v1/"+algo, bytes.NewReader(body))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, r)
	return w
}

// TestCacheServesExactBytes: an identical repeat request is served from
// the cache — byte-identical to the computed response, with the source
// header flipped and no second pool checkout.
func TestCacheServesExactBytes(t *testing.T) {
	algo, body := benchRequest(t)
	s := New(Config{CacheBytes: 1 << 20})

	first := postRec(t, s.Handler(), algo, body)
	if first.Code != http.StatusOK {
		t.Fatalf("first: status %d: %s", first.Code, first.Body.String())
	}
	if got := first.Header().Get("X-Dyncg-Source"); got != "computed" {
		t.Fatalf("first: X-Dyncg-Source = %q, want computed", got)
	}

	second := postRec(t, s.Handler(), algo, body)
	if second.Code != http.StatusOK {
		t.Fatalf("second: status %d: %s", second.Code, second.Body.String())
	}
	if got := second.Header().Get("X-Dyncg-Source"); got != "cache" {
		t.Fatalf("second: X-Dyncg-Source = %q, want cache", got)
	}
	if !bytes.Equal(first.Body.Bytes(), second.Body.Bytes()) {
		t.Errorf("cached response differs from computed:\n%s\n%s", first.Body, second.Body)
	}

	ps := s.Pool().Stats()
	if total := ps.Hits + ps.Misses; total != 1 {
		t.Errorf("pool checkouts = %d, want 1 (cache hit must not touch the pool)", total)
	}
	cs := s.RCacheStats()
	if cs.Hits != 1 || cs.Misses != 1 {
		t.Errorf("rcache stats = %+v, want 1 hit / 1 miss", cs)
	}
}

// TestCacheCanonicalization: a renormalized spelling of the same system
// (trailing zero coefficients) hits the cache entry of the original and
// receives its exact bytes — the canon.Key property, end to end.
func TestCacheCanonicalization(t *testing.T) {
	s := New(Config{CacheBytes: 1 << 20})
	a := []byte(`{"v":1,"system":[[[0,1],[0]],[[10,-1],[1]]],"origin":1}`)
	b := []byte(`{"v": 1, "system": [[[0,1,0,0],[0,0]],[[1e1,-1.0],[1.000,0]]], "origin": 1}`)

	first := postRec(t, s.Handler(), "closest-point-sequence", a)
	if first.Code != http.StatusOK {
		t.Fatalf("first: status %d: %s", first.Code, first.Body.String())
	}
	second := postRec(t, s.Handler(), "closest-point-sequence", b)
	if got := second.Header().Get("X-Dyncg-Source"); got != "cache" {
		t.Fatalf("renormalized request: X-Dyncg-Source = %q, want cache", got)
	}
	if !bytes.Equal(first.Body.Bytes(), second.Body.Bytes()) {
		t.Error("renormalized request served different bytes")
	}
}

// TestCoalesceComputesOnce is the acceptance criterion: N identical
// concurrent requests perform exactly one pool computation, every
// response is byte-identical, and the source headers distinguish the
// leader from the merged followers.
func TestCoalesceComputesOnce(t *testing.T) {
	const n = 8
	algo, body := benchRequest(t)

	// Reference bytes from an uncoalesced server with an identical
	// machine state (fresh pool, first request of its class).
	ref := postRec(t, New(Config{}).Handler(), algo, body)
	if ref.Code != http.StatusOK {
		t.Fatalf("reference: status %d: %s", ref.Code, ref.Body.String())
	}

	s := New(Config{Coalesce: true}) // cache off: every request must coalesce, not hit
	var computations atomic.Int64
	entered := make(chan struct{})
	gate := make(chan struct{})
	s.hookRunning = func() {
		if computations.Add(1) == 1 {
			close(entered) // leader checked out the machine...
			<-gate         // ...and holds it until all followers merged
		}
	}

	recs := make([]*httptest.ResponseRecorder, n)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		recs[0] = postRec(t, s.Handler(), algo, body)
	}()
	<-entered
	for i := 1; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			recs[i] = postRec(t, s.Handler(), algo, body)
		}(i)
	}
	deadline := time.Now().Add(10 * time.Second)
	for s.CoalesceMerged() < n-1 {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d followers merged", s.CoalesceMerged(), n-1)
		}
		time.Sleep(time.Millisecond)
	}
	close(gate)
	wg.Wait()

	if c := computations.Load(); c != 1 {
		t.Fatalf("pool computations = %d, want exactly 1", c)
	}
	sources := map[string]int{}
	for i, rec := range recs {
		if rec.Code != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i, rec.Code, rec.Body.String())
		}
		if !bytes.Equal(rec.Body.Bytes(), ref.Body.Bytes()) {
			t.Errorf("request %d: response differs from uncoalesced serving", i)
		}
		sources[rec.Header().Get("X-Dyncg-Source")]++
	}
	if sources["computed"] != 1 || sources["coalesced"] != n-1 {
		t.Errorf("sources = %v, want 1 computed / %d coalesced", sources, n-1)
	}
	if m := s.CoalesceMerged(); m != n-1 {
		t.Errorf("CoalesceMerged = %d, want %d", m, n-1)
	}
}

// TestFaultRequestsBypassFrontDoor: fault-injected requests are never
// cached or coalesced — their responses depend on the injected
// schedule, not only the system.
func TestFaultRequestsBypassFrontDoor(t *testing.T) {
	s := New(Config{CacheBytes: 1 << 20, Coalesce: true})
	body := []byte(`{"v":1,"system":[[[0,1],[0]],[[10,-1],[1]],[[3],[4]],[[5,2],[1]]],` +
		`"options":{"faults":"transient=0.2","fault_seed":7}}`)
	for i := 0; i < 2; i++ {
		rec := postRec(t, s.Handler(), "collision-times", body)
		if rec.Code != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i, rec.Code, rec.Body.String())
		}
		if got := rec.Header().Get("X-Dyncg-Source"); got != "computed" {
			t.Errorf("request %d: X-Dyncg-Source = %q, want computed", i, got)
		}
	}
	if cs := s.RCacheStats(); cs.Hits != 0 || cs.Entries != 0 {
		t.Errorf("fault-injected responses reached the cache: %+v", cs)
	}
}

// TestCacheRespectsDraining: a draining server rejects requests even
// when the answer sits in the cache: it skips the cache read, so the
// cached key goes on to admission, which answers 503 draining.
func TestCacheRespectsDraining(t *testing.T) {
	algo, body := benchRequest(t)
	s := New(Config{CacheBytes: 1 << 20})
	if rec := postRec(t, s.Handler(), algo, body); rec.Code != http.StatusOK {
		t.Fatalf("prime: status %d", rec.Code)
	}
	s.SetDraining(true)
	before := s.RCacheStats()
	rec := postRec(t, s.Handler(), algo, body)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("draining cache-hit: status %d, want 503", rec.Code)
	}
	if e := decodeErr(t, rec.Body.Bytes()); e.Code != api.CodeDraining {
		t.Errorf("draining rejection code %q: %s", e.Code, rec.Body.String())
	}
	if src := rec.Header().Get("X-Dyncg-Source"); src != "computed" {
		t.Errorf("X-Dyncg-Source = %q, want computed", src)
	}
	if after := s.RCacheStats(); after.Hits != before.Hits || after.Misses != before.Misses {
		t.Errorf("a draining server read the cache: %+v, then %+v", before, after)
	}
}

// TestErrorResponsesNotCached: non-200 outcomes never enter the cache.
func TestErrorResponsesNotCached(t *testing.T) {
	s := New(Config{CacheBytes: 1 << 20})
	// One moving point cannot collide with anything: bad_system.
	body := []byte(`{"v":1,"system":[]}`)
	for i := 0; i < 2; i++ {
		rec := postRec(t, s.Handler(), "collision-times", body)
		if rec.Code == http.StatusOK {
			t.Fatalf("empty system unexpectedly succeeded")
		}
		if got := rec.Header().Get("X-Dyncg-Source"); got == "cache" {
			t.Errorf("request %d: error served from cache", i)
		}
	}
	if cs := s.RCacheStats(); cs.Entries != 0 {
		t.Errorf("error response entered the cache: %+v", cs)
	}
}

// TestFrontDoorMetrics: the new counters appear on /metrics with the
// values the traffic implies.
func TestFrontDoorMetrics(t *testing.T) {
	algo, body := benchRequest(t)
	s := New(Config{CacheBytes: 1 << 20, Coalesce: true})
	postRec(t, s.Handler(), algo, body)
	postRec(t, s.Handler(), algo, body) // cache hit

	r := httptest.NewRequest(http.MethodGet, "/metrics", nil)
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, r)
	out := w.Body.String()
	for _, want := range []string{
		"dyncg_rcache_hits_total 1",
		"dyncg_rcache_misses_total 1",
		"dyncg_rcache_evictions_total 0",
		"dyncg_coalesce_inflight_merged_total 0",
		"dyncgd_pool_idle_pes ",
		"dyncgd_queue_depth 0",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	if !strings.Contains(out, "dyncg_rcache_bytes ") {
		t.Error("metrics missing dyncg_rcache_bytes")
	}
	// The idle-PEs gauge must reflect the one pooled 64-PE machine.
	if !strings.Contains(out, "dyncgd_pool_idle_pes 64") {
		t.Errorf("dyncgd_pool_idle_pes should be 64:\n%s", out)
	}
}

// TestSessionsBypassFrontDoor: session endpoints carry no source
// header and never touch the response cache.
func TestSessionsBypassFrontDoor(t *testing.T) {
	s := New(Config{CacheBytes: 1 << 20, Coalesce: true})
	body := []byte(`{"v":1,"algorithm":"closest-point-sequence","origin":0,` +
		`"system":[[[0,1],[0]],[[10,-1],[1]],[[3],[4]],[[5,2],[1]]]}`)
	r := httptest.NewRequest(http.MethodPost, "/v1/sessions", bytes.NewReader(body))
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, r)
	if w.Code != http.StatusOK {
		t.Fatalf("session create: status %d: %s", w.Code, w.Body.String())
	}
	if got := w.Header().Get("X-Dyncg-Source"); got != "" {
		t.Errorf("session response carries X-Dyncg-Source = %q", got)
	}
	if cs := s.RCacheStats(); cs.Entries != 0 || cs.Misses != 0 {
		t.Errorf("session touched the response cache: %+v", cs)
	}
}

// TestDistinctRequestsDoNotShareCache: changing any response-steering
// field misses the cache.
func TestDistinctRequestsDoNotShareCache(t *testing.T) {
	s := New(Config{CacheBytes: 1 << 20})
	a := []byte(`{"v":1,"system":[[[0,1],[0]],[[10,-1],[1]]],"origin":0}`)
	b := []byte(`{"v":1,"system":[[[0,1],[0]],[[10,-1],[1]]],"origin":1}`)
	postRec(t, s.Handler(), "closest-point-sequence", a)
	rec := postRec(t, s.Handler(), "closest-point-sequence", b)
	if got := rec.Header().Get("X-Dyncg-Source"); got != "computed" {
		t.Errorf("different origin served from %q", got)
	}
}

// TestCanonHashEqualImpliesSameResponse is the canon property test at
// the serving layer: requests whose canonical keys agree receive
// byte-identical responses from independent fresh servers.
func TestCanonHashEqualImpliesSameResponse(t *testing.T) {
	// Pairs of distinct spellings of one request.
	pairs := [][2][]byte{
		{
			[]byte(`{"v":1,"system":[[[0,1],[0]],[[10,-1],[1]],[[3],[4]],[[5,2],[1]]],"origin":1}`),
			[]byte(`{"origin":1,"v":1,"system":[[[0,1,0],[0,0,0]],[[10,-1],[1,0]],[[3,0],[4]],[[5,2],[1]]]}`),
		},
		{
			[]byte(`{"v":1,"system":[[[2],[3]],[[4],[5]],[[6],[7]],[[8],[9]]],"dims":[40,40]}`),
			[]byte(`{"v":1,"dims":[4e1,40.0],"system":[[[2.0],[3]],[[4],[5,0]],[[6],[7]],[[8],[9]]]}`),
		},
	}
	algos := []string{"closest-point-sequence", "containment-intervals"}
	for i, pair := range pairs {
		var keys [2]string
		var bodies [2][]byte
		for j, raw := range pair {
			var req api.Request
			if err := json.Unmarshal(raw, &req); err != nil {
				t.Fatalf("pair %d[%d]: %v", i, j, err)
			}
			// Topology and workers are server-resolved inputs; any fixed
			// values expose the property under test (key equality across
			// spellings of one system).
			k, ok := canon.Key(algos[i], "hypercube", 1, &req)
			if !ok {
				t.Fatalf("pair %d[%d]: uncacheable", i, j)
			}
			keys[j] = k
			rec := postRec(t, New(Config{}).Handler(), algos[i], raw)
			if rec.Code != http.StatusOK {
				t.Fatalf("pair %d[%d]: status %d: %s", i, j, rec.Code, rec.Body.String())
			}
			bodies[j] = rec.Body.Bytes()
		}
		if keys[0] != keys[1] {
			t.Errorf("pair %d: canonical keys differ:\n  %s\n  %s", i, keys[0], keys[1])
		}
		if !bytes.Equal(bodies[0], bodies[1]) {
			t.Errorf("pair %d: hash-equal requests got different bytes:\n  %s\n  %s",
				i, bodies[0], bodies[1])
		}
	}
}

// TestPanicContained: a computation that panics once is answered, not
// dropped. The panicking request gets a typed 500 internal and its
// replay record; an identical request coalesced onto it gets a typed
// 5xx too; the machine it panicked on is not pooled again; and the
// next request is served normally.
func TestPanicContained(t *testing.T) {
	algo, body := benchRequest(t)
	dir := t.TempDir()
	rlog, err := replaylog.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{Coalesce: true, ReplayLog: rlog})
	var runs atomic.Int64
	entered := make(chan struct{})
	gate := make(chan struct{})
	s.hookRunning = func() {
		if runs.Add(1) == 1 {
			close(entered)
			<-gate
			panic("injected fault")
		}
	}

	var leader, follower *httptest.ResponseRecorder
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		leader = postRec(t, s.Handler(), algo, body)
	}()
	<-entered
	go func() {
		defer wg.Done()
		follower = postRec(t, s.Handler(), algo, body)
	}()
	for s.CoalesceMerged() < 1 {
		time.Sleep(time.Millisecond)
	}
	close(gate)
	wg.Wait()

	if leader.Code != http.StatusInternalServerError || decodeErr(t, leader.Body.Bytes()).Code != api.CodeInternal {
		t.Fatalf("panicking request: %d %s, want 500 internal", leader.Code, leader.Body)
	}
	if follower.Code < 500 || decodeErr(t, follower.Body.Bytes()).Code == "" {
		t.Fatalf("coalesced follower: %d %s, want a typed 5xx", follower.Code, follower.Body)
	}
	next := postRec(t, s.Handler(), algo, body)
	if resp := decodeOK(t, next.Code, next.Body.Bytes()); resp.Pool.Hit {
		t.Error("the machine the panic ran on was pooled again")
	}
	var metrics strings.Builder
	s.Metrics().Write(&metrics)
	if want := `dyncgd_requests_total{algorithm="` + algo + `",code="500"} 2`; !strings.Contains(metrics.String(), want) {
		t.Errorf("metrics lack %s:\n%s", want, metrics.String())
	}

	if err := rlog.Close(); err != nil {
		t.Fatal(err)
	}
	recs, err := replaylog.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var statuses []int
	for _, rec := range recs {
		if rec.Anchor {
			continue
		}
		statuses = append(statuses, rec.Status)
		if string(rec.Request) != string(body) {
			t.Errorf("record %d (status %d) holds request %q, want the body", rec.Seq, rec.Status, rec.Request)
		}
	}
	if len(statuses) != 3 || statuses[0] < 500 || statuses[1] < 500 || statuses[2] != http.StatusOK {
		t.Errorf("recorded statuses %v, want the two 5xx answers then 200", statuses)
	}
}
