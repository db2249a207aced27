package server_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"dyncg/internal/api"
	"dyncg/internal/fleet"
	"dyncg/internal/server"
	"dyncg/internal/shard"
)

// The request router over a set of servers is the fleet front door:
// these tests drive n in-process servers through it and check that
// routing stays invisible on the wire and keeps every key on one
// member.

// routedFleet is n servers behind a fleet front door.
type routedFleet struct {
	fd      *fleet.FrontDoor
	ids     []string
	servers []*server.Server
}

// newRoutedFleet starts n servers built from cfg (member identity
// filled in) behind a front door whose body cap is cfg.MaxBody.
func newRoutedFleet(t *testing.T, n int, cfg server.Config) *routedFleet {
	t.Helper()
	rf := &routedFleet{}
	for i := 0; i < n; i++ {
		rf.ids = append(rf.ids, fmt.Sprintf("m%d", i))
	}
	members := make([]fleet.Member, n)
	for i, id := range rf.ids {
		c := cfg
		c.MemberID, c.FleetIDs = id, rf.ids
		srv := server.New(c)
		ts := httptest.NewServer(srv.Handler())
		t.Cleanup(ts.Close)
		rf.servers = append(rf.servers, srv)
		members[i] = fleet.Member{ID: id, URL: ts.URL}
	}
	fd, err := fleet.New(fleet.Config{Members: members, MaxBody: cfg.MaxBody, ProbeInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	rf.fd = fd
	return rf
}

// routerDo sends one request through the front door and returns the
// recorder.
func routerDo(t *testing.T, h http.Handler, method, path string, body []byte) *httptest.ResponseRecorder {
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

func errCode(t *testing.T, body []byte) api.ErrorCode {
	t.Helper()
	var e api.Error
	if err := json.Unmarshal(body, &e); err != nil {
		t.Fatalf("decoding error envelope: %v (%s)", err, body)
	}
	return e.Code
}

// TestRouterMatchesSingleServer: every endpoint served through a
// 3-member router returns bytes identical to a single fresh server —
// distribution must be invisible on the wire.
func TestRouterMatchesSingleServer(t *testing.T) {
	for name, req := range server.EndpointCases(t) {
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		// Fresh fleet and server per case: the request is then the first
		// of its machine class on both sides, so pool info matches.
		rf := newRoutedFleet(t, 3, server.Config{})
		single := routerDo(t, server.New(server.Config{}).Handler(), http.MethodPost, "/v1/"+name, body)
		routed := routerDo(t, rf.fd.Handler(), http.MethodPost, "/v1/"+name, body)
		if routed.Code != single.Code {
			t.Errorf("%s: routed status %d, single %d", name, routed.Code, single.Code)
			continue
		}
		if !bytes.Equal(routed.Body.Bytes(), single.Body.Bytes()) {
			t.Errorf("%s: routed bytes differ from single server:\n  %s\n  %s",
				name, routed.Body, single.Body)
		}
	}
}

// TestRouterRoutingDeterminism: identical requests always land on the
// same member — observable as a cache hit on the repeat, which can
// only happen if both visits reached the member holding the entry.
func TestRouterRoutingDeterminism(t *testing.T) {
	algo, body := server.BenchRequest(t)
	rf := newRoutedFleet(t, 4, server.Config{CacheBytes: 1 << 20})
	first := routerDo(t, rf.fd.Handler(), http.MethodPost, "/v1/"+algo, body)
	if first.Code != http.StatusOK {
		t.Fatalf("first: status %d: %s", first.Code, first.Body.String())
	}
	second := routerDo(t, rf.fd.Handler(), http.MethodPost, "/v1/"+algo, body)
	if got := second.Header().Get("X-Dyncg-Source"); got != "cache" {
		t.Fatalf("repeat request missed the cache (source %q): inconsistent routing", got)
	}
	if !bytes.Equal(first.Body.Bytes(), second.Body.Bytes()) {
		t.Error("cached routed response differs")
	}
	// Exactly one member saw traffic: one miss then one hit, fleet-wide.
	var hits, misses int64
	for _, s := range rf.servers {
		st := s.RCacheStats()
		hits += st.Hits
		misses += st.Misses
	}
	if hits != 1 || misses != 1 {
		t.Errorf("fleet rcache hits=%d misses=%d, want 1/1", hits, misses)
	}
}

// TestRouterSessionLifecycle: sessions created through the router are
// reachable for update/query/delete — the minted IDs hash back to the
// owning member.
func TestRouterSessionLifecycle(t *testing.T) {
	rf := newRoutedFleet(t, 3, server.Config{})
	ring := shard.NewNamed(rf.ids, 0)
	create := []byte(`{"v":1,"algorithm":"closest-point-sequence","origin":0,` +
		`"system":[[[0,1],[0]],[[10,-1],[1]],[[3],[4]],[[5,2],[1]]]}`)

	type sessResp struct {
		Session struct {
			ID string `json:"id"`
		} `json:"session"`
	}
	var ids []string
	for i := 0; i < 9; i++ {
		w := routerDo(t, rf.fd.Handler(), http.MethodPost, "/v1/sessions", create)
		if w.Code != http.StatusOK {
			t.Fatalf("create %d: status %d: %s", i, w.Code, w.Body.String())
		}
		var sr sessResp
		if err := json.Unmarshal(w.Body.Bytes(), &sr); err != nil || sr.Session.ID == "" {
			t.Fatalf("create %d: bad response %s", i, w.Body.String())
		}
		if home, minted := ring.Lookup(sr.Session.ID), w.Header().Get("X-Dyncg-Member"); home != minted {
			t.Errorf("session %s minted by %q but hashes to %q", sr.Session.ID, minted, home)
		}
		ids = append(ids, sr.Session.ID)
	}

	// Every member's registry must only hold IDs that hash back to it.
	perMember := make(map[string]int)
	for _, id := range ids {
		perMember[ring.Lookup(id)]++
	}
	for i, s := range rf.servers {
		if s.Sessions().Len() != perMember[rf.ids[i]] {
			t.Errorf("member %s holds %d sessions, ring says %d", rf.ids[i], s.Sessions().Len(), perMember[rf.ids[i]])
		}
	}

	for _, id := range ids {
		w := routerDo(t, rf.fd.Handler(), http.MethodGet, "/v1/sessions/"+id+"/query", nil)
		if w.Code != http.StatusOK {
			t.Fatalf("query %s: status %d: %s", id, w.Code, w.Body.String())
		}
		upd := []byte(`{"v":1,"deltas":[{"op":"retarget","id":1,"point":[[7,1],[2]]}]}`)
		w = routerDo(t, rf.fd.Handler(), http.MethodPost, "/v1/sessions/"+id+"/update", upd)
		if w.Code != http.StatusOK {
			t.Fatalf("update %s: status %d: %s", id, w.Code, w.Body.String())
		}
		w = routerDo(t, rf.fd.Handler(), http.MethodDelete, "/v1/sessions/"+id, nil)
		if w.Code != http.StatusOK {
			t.Fatalf("delete %s: status %d: %s", id, w.Code, w.Body.String())
		}
	}
	for i, s := range rf.servers {
		if s.Sessions().Len() != 0 {
			t.Errorf("member %s still holds %d sessions after deletes", rf.ids[i], s.Sessions().Len())
		}
	}
}

// TestRouterUnknownSession: a made-up ID routes deterministically and
// reports no_session, matching single-server behavior.
func TestRouterUnknownSession(t *testing.T) {
	rf := newRoutedFleet(t, 3, server.Config{})
	w := routerDo(t, rf.fd.Handler(), http.MethodGet, "/v1/sessions/s-99-deadbeef/query", nil)
	if w.Code != http.StatusNotFound {
		t.Fatalf("status %d, want 404: %s", w.Code, w.Body.String())
	}
	if code := errCode(t, w.Body.Bytes()); code != api.CodeNoSession {
		t.Errorf("code %q, want %s", code, api.CodeNoSession)
	}
}

// TestRouterDecodeErrors: malformed and oversized bodies produce the
// same envelopes through the router as through a single server.
func TestRouterDecodeErrors(t *testing.T) {
	cfg := server.Config{MaxBody: 256}
	rf := newRoutedFleet(t, 3, cfg)
	single := server.New(cfg)

	cases := map[string][]byte{
		"malformed": []byte(`{"v":1,`),
		"oversized": []byte(fmt.Sprintf(`{"v":1,"system":[%s]}`, strings.Repeat("1,", 400))),
	}
	wantStatus := map[string]int{
		"malformed": http.StatusBadRequest,
		"oversized": http.StatusRequestEntityTooLarge,
	}
	for name, body := range cases {
		routed := routerDo(t, rf.fd.Handler(), http.MethodPost, "/v1/steady-hull", body)
		ref := routerDo(t, single.Handler(), http.MethodPost, "/v1/steady-hull", body)
		if routed.Code != wantStatus[name] {
			t.Errorf("%s: routed status %d, want %d", name, routed.Code, wantStatus[name])
		}
		if routed.Code != ref.Code || !bytes.Equal(routed.Body.Bytes(), ref.Body.Bytes()) {
			t.Errorf("%s: routed error differs from single server:\n  %d %s\n  %d %s",
				name, routed.Code, routed.Body, ref.Code, ref.Body)
		}
	}
}
