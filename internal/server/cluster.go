package server

import (
	"net/http"
	"strconv"

	"dyncg/internal/api"
	"dyncg/internal/shard"
)

// apiVersionHeader is the value of X-Dyncg-Api-Version on every
// response: the v1 wire-schema version the server speaks.
var apiVersionHeader = strconv.Itoa(api.Version)

// ServeHTTP serves the full surface, stamping the identity headers —
// X-Dyncg-Member and X-Dyncg-Api-Version — on every response so a
// client (or a front door debugging a misroute) can always see which
// member produced the bytes and under which schema version.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	h := w.Header()
	h.Set("X-Dyncg-Api-Version", apiVersionHeader)
	h.Set("X-Dyncg-Member", s.member)
	s.mux.ServeHTTP(w, r)
}

// fleetIDCheck builds the session-ID predicate of a fleet worker:
// minted IDs must consistent-hash (on the fleet's named ring) back to
// this member, so the front door's ID-routed session requests always
// land on the process holding the pinned machine. Nil when the config
// is not a multi-member fleet.
func fleetIDCheck(cfg Config) func(string) bool {
	if cfg.MemberID == "" || len(cfg.FleetIDs) < 2 {
		return nil
	}
	ring := shard.NewNamed(cfg.FleetIDs, 0)
	me := cfg.MemberID
	return func(id string) bool { return ring.Lookup(id) == me }
}

// handleCluster serves GET /v1/cluster for a standalone server: one
// member, every key owned by it.
func (s *Server) handleCluster(w http.ResponseWriter, r *http.Request) {
	resp := api.ClusterResponse{
		V:    api.Version,
		Mode: "single",
		Members: []api.ClusterMember{{
			ID:         s.member,
			Healthy:    !s.draining.Load(),
			Inflight:   len(s.sem),
			QueueDepth: len(s.queue) - len(s.sem),
			IdlePEs:    s.pool.Stats().IdlePEs,
			Sessions:   s.sessions.Len(),
		}},
	}
	if key := r.URL.Query().Get("key"); key != "" {
		resp.Probe = &api.ClusterProbe{Key: key, Member: s.member}
	}
	writeJSON(w, http.StatusOK, resp)
}
