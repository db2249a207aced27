package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"

	"dyncg/internal/api"
)

// TestIdentityHeaders: every response — success, error, healthz —
// carries X-Dyncg-Member and X-Dyncg-Api-Version.
func TestIdentityHeaders(t *testing.T) {
	s := New(Config{MemberID: "m7"})
	for _, path := range []string{"/healthz", "/v1/cluster", "/metrics"} {
		w := httptest.NewRecorder()
		s.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodGet, path, nil))
		if got := w.Header().Get("X-Dyncg-Member"); got != "m7" {
			t.Errorf("%s: X-Dyncg-Member = %q, want m7", path, got)
		}
		if got := w.Header().Get("X-Dyncg-Api-Version"); got != strconv.Itoa(api.Version) {
			t.Errorf("%s: X-Dyncg-Api-Version = %q, want %d", path, got, api.Version)
		}
	}
	// An unnamed server is member "local".
	w := postRec(t, New(Config{}).Handler(), "steady-hull", []byte("{"))
	if got := w.Header().Get("X-Dyncg-Member"); got != "local" {
		t.Errorf("error response X-Dyncg-Member = %q, want local", got)
	}
}

// TestClusterSingle: a standalone server reports itself as the one
// member and owns every probed key.
func TestClusterSingle(t *testing.T) {
	s := New(Config{MemberID: "m0"})
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/cluster?key=abc", nil))
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d", w.Code)
	}
	var resp api.ClusterResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.V != api.Version || resp.Mode != "single" {
		t.Fatalf("v=%d mode=%q", resp.V, resp.Mode)
	}
	if len(resp.Members) != 1 || resp.Members[0].ID != "m0" || !resp.Members[0].Healthy {
		t.Fatalf("members = %+v", resp.Members)
	}
	if resp.Probe == nil || resp.Probe.Key != "abc" || resp.Probe.Member != "m0" {
		t.Fatalf("probe = %+v", resp.Probe)
	}
	s.SetDraining(true)
	w = httptest.NewRecorder()
	s.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/cluster", nil))
	var drained api.ClusterResponse
	if err := json.Unmarshal(w.Body.Bytes(), &drained); err != nil {
		t.Fatal(err)
	}
	if drained.Members[0].Healthy {
		t.Error("draining member reported healthy")
	}
}

// TestFleetIDMinting: a worker configured with a fleet roster mints
// session IDs that are salted with its member ID and consistent-hash
// home to it on the fleet's named ring.
func TestFleetIDMinting(t *testing.T) {
	cfg := Config{MemberID: "m1", FleetIDs: []string{"m0", "m1", "m2"}}
	check := fleetIDCheck(cfg)
	if check == nil {
		t.Fatal("fleetIDCheck = nil for a 3-member fleet")
	}
	s := New(cfg)
	req := endpointCases(t)["closest-point-sequence"]
	body, err := json.Marshal(api.SessionCreateRequest{
		V: api.Version, System: req.System, Algorithm: "closest-point-sequence",
		Options: api.SessionOptions{Topology: "hypercube"},
	})
	if err != nil {
		t.Fatal(err)
	}
	w := httptest.NewRecorder()
	r := httptest.NewRequest(http.MethodPost, "/v1/sessions", bytes.NewReader(body))
	s.Handler().ServeHTTP(w, r)
	if w.Code != http.StatusOK {
		t.Fatalf("create: %d: %s", w.Code, w.Body)
	}
	var out api.SessionCreateResponse
	if err := json.Unmarshal(w.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	id := out.Session.ID
	if len(id) < 5 || id[:5] != "s-m1-" {
		t.Errorf("session ID %q not salted with member m1", id)
	}
	if !check(id) {
		t.Errorf("session ID %q does not hash home to m1", id)
	}
}
