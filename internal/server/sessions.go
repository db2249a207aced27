package server

// The stateful session endpoints: a session checks one machine out of
// the warm pool, builds an internal/session engine on it, and keeps both
// resident so each update batch sends only its deltas and pays one
// envelope pass on the pinned machine. DELETE (or TTL eviction) WarmResets the machine and
// returns it to the pool — the machine's lifecycle is pool → pinned →
// pool, never leaked, which TestSessionChurnPoolAccounting pins down.
//
//	POST   /v1/sessions              create (admitted; one from-scratch build)
//	POST   /v1/sessions/{id}/update  apply a batch (admitted; one envelope pass)
//	GET    /v1/sessions/{id}/query   read the maintained answer (admitted
//	                                 only with ?verify=1, which re-derives
//	                                 from scratch and audits bit-identity)
//	DELETE /v1/sessions/{id}         release (not admitted; frees capacity)

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"reflect"
	"runtime"
	"sync"
	"time"

	"dyncg/internal/algo"
	"dyncg/internal/api"
	"dyncg/internal/front"
	"dyncg/internal/motion"
	"dyncg/internal/session"
	"dyncg/internal/topo"
)

// releaseSession is the registry's release callback: zero the pinned
// machine's counters (keeping its scratch arena warm) and return it to
// the pool under the size class it was checked out from.
func (s *Server) releaseSession(ss *session.Session) {
	ss.M.WarmReset()
	s.pool.Put(Key{Topo: ss.Topo, PEs: ss.PEs, Workers: ss.Workers}, ss.M)
}

// sessionMetrics are the session-layer Prometheus counters. Gauges
// (active sessions) and the eviction counter live in the registry; this
// struct accumulates what only the handlers see: applied batches and
// their latency histogram. Exposed under the dyncg_ namespace.
type sessionMetrics struct {
	mu      sync.Mutex
	updates uint64
	buckets []uint64 // reuses latBuckets bounds; last entry is +Inf
	sumUs   int64
}

func newSessionMetrics() *sessionMetrics {
	return &sessionMetrics{buckets: make([]uint64, len(latBuckets)+1)}
}

func (x *sessionMetrics) observeUpdate(d time.Duration) {
	us := d.Microseconds()
	x.mu.Lock()
	defer x.mu.Unlock()
	x.updates++
	x.sumUs += us
	i := 0
	for i < len(latBuckets) && us > latBuckets[i] {
		i++
	}
	x.buckets[i]++
}

// write emits the session-layer exposition. active and evictions come
// from the registry.
func (x *sessionMetrics) write(w io.Writer, active int, evictions uint64) {
	x.mu.Lock()
	defer x.mu.Unlock()
	fmt.Fprintf(w, "# TYPE dyncg_sessions_active gauge\n")
	fmt.Fprintf(w, "dyncg_sessions_active %d\n", active)
	fmt.Fprintf(w, "# TYPE dyncg_session_updates_total counter\n")
	fmt.Fprintf(w, "dyncg_session_updates_total %d\n", x.updates)
	fmt.Fprintf(w, "# TYPE dyncg_session_evictions_total counter\n")
	fmt.Fprintf(w, "dyncg_session_evictions_total %d\n", evictions)
	fmt.Fprintf(w, "# TYPE dyncg_session_update_latency_us histogram\n")
	cum := uint64(0)
	for i, ub := range latBuckets {
		cum += x.buckets[i]
		fmt.Fprintf(w, "dyncg_session_update_latency_us_bucket{le=\"%d\"} %d\n", ub, cum)
	}
	cum += x.buckets[len(latBuckets)]
	fmt.Fprintf(w, "dyncg_session_update_latency_us_bucket{le=\"+Inf\"} %d\n", cum)
	fmt.Fprintf(w, "dyncg_session_update_latency_us_sum %d\n", x.sumUs)
	fmt.Fprintf(w, "dyncg_session_update_latency_us_count %d\n", x.updates)
}

// Sessions returns the session registry (exposed for tests).
func (s *Server) Sessions() *session.Registry { return s.sessions }

// sessionInfo snapshots a session's wire description (caller holds the
// session via registry.Do).
func sessionInfo(ss *session.Session) api.SessionInfo {
	return api.SessionInfo{
		ID:        ss.ID,
		Algorithm: string(ss.Eng.Algorithm()),
		Machine:   api.MachineInfo{Topology: ss.Topo, PEs: ss.PEs, Workers: infoWorkers(ss.Workers)},
		Capacity:  ss.Eng.Capacity(),
		MaxDegree: ss.Eng.MaxDegree(),
		Origin:    ss.Eng.Origin(),
		Points:    ss.Eng.Points(),
		Updates:   ss.Eng.Updates(),
	}
}

// sessionResult converts a session's maintained answer to the same wire
// payload the one-shot algorithm would return.
func sessionResult(a session.Algo, res session.Result) any {
	switch a {
	case session.ClosestPointSeq, session.FarthestPointSeq:
		return algo.NeighborEvents(res.Neighbors)
	case session.ClosestPairSeq, session.FarthestPairSeq:
		return algo.PairEvents(res.Pairs)
	case session.CubeEdge:
		return algo.Piecewise(res.Edge)
	case session.SmallestEver:
		return api.MinCube{D: res.MinD, T: res.MinT}
	default: // session.Containment
		return algo.Intervals(res.Intervals)
	}
}

// deltasFrom converts the wire batch to engine deltas.
func deltasFrom(ws []api.SessionDelta) ([]session.Delta, error) {
	out := make([]session.Delta, len(ws))
	for i, wd := range ws {
		d := session.Delta{Op: session.Op(wd.Op), ID: wd.ID}
		switch d.Op {
		case session.OpInsert, session.OpRetarget:
			if len(wd.Point) == 0 {
				return nil, fmt.Errorf("server: delta %d (%s) has no point: %w", i, wd.Op, motion.ErrBadSystem)
			}
			d.Point = algo.PointFrom(wd.Point)
		case session.OpDelete:
		default:
			return nil, fmt.Errorf("server: delta %d has unknown op %q: %w", i, wd.Op, motion.ErrBadSystem)
		}
		out[i] = d
	}
	return out, nil
}

// sessionDeadline is the deadline of an admitted request on session id:
// the one its create resolved, or the server default for an unknown ID
// (whose request then fails with ErrNoSession after admission).
func (s *Server) sessionDeadline(id string) time.Duration {
	if ss, ok := s.sessions.Lookup(id); ok {
		return ss.Deadline
	}
	return s.cfg.Deadline
}

// handleSessionCreate serves POST /v1/sessions: admit, pin a machine
// from the pool (or construct into the session's size class), build the
// engine from scratch, and register the session.
func (s *Server) handleSessionCreate(w http.ResponseWriter, r *http.Request, c *call) (o *outcome) {
	var req api.SessionCreateRequest
	if o = s.decode(w, r, c, &req, func() int { return req.V }); o != nil {
		return o
	}
	sa, err := session.ParseAlgo(req.Algorithm)
	if err != nil {
		return fail(http.StatusBadRequest, api.CodeUnknownAlgorithm, err)
	}
	tp, err := front.Topology(req.Options.Topology)
	if err == nil && tp != topo.Hypercube && tp != topo.Mesh {
		err = fmt.Errorf("server: sessions support mesh and hypercube machines, not %q", tp)
	}
	if err != nil {
		return fail(http.StatusBadRequest, api.CodeBadTopology, err)
	}
	sys, err := algo.SystemFrom(req.System)
	if err != nil {
		return failed(err)
	}

	// The machine is sized before the engine exists, so resolve the
	// engine's defaults here.
	cfg := session.Config{
		Algorithm: sa,
		Origin:    req.Origin,
		Dims:      req.Dims,
		Capacity:  req.Options.Capacity,
		MaxDegree: req.Options.MaxDegree,
	}.Resolve(sys)
	need := max(session.PEs(string(tp), sa, cfg.Capacity, cfg.MaxDegree), req.Options.PEs)
	classSize, err := topo.Size(tp, need)
	if err != nil {
		return failed(err)
	}
	key := Key{Topo: string(tp), PEs: classSize, Workers: front.Workers(req.Options.Workers, runtime.GOMAXPROCS(0))}

	deadline := s.deadline(req.Options.DeadlineMs)
	ctx, cancel := context.WithTimeout(r.Context(), deadline)
	defer cancel()
	release, rejected := s.admitted(ctx)
	if rejected != nil {
		return rejected
	}
	defer release()
	m, hit, err := s.checkout(key, need)
	if err != nil {
		return failed(err)
	}
	eng, err := session.New(m, cfg, sys.Points)
	buildStats := m.Stats()
	if err == nil && ctx.Err() != nil {
		// Built too late: the session is never registered.
		s.pool.Put(key, m)
		return new(outcome).late(ctx.Err())
	}
	var ss *session.Session
	if err == nil {
		ss, err = s.sessions.Add(eng, m, key.Topo, key.Workers, deadline)
	}
	if err != nil {
		s.pool.Put(key, m) // the next checkout's WarmReset discards whatever New ran
		return failed(err)
	}
	c.sid = ss.ID
	resp := &api.SessionCreateResponse{
		V:       api.Version,
		Session: sessionInfo(ss),
		Pool:    api.PoolInfo{Hit: hit},
		Stats:   api.FromStats(buildStats),
		Result:  sessionResult(sa, eng.Result()),
	}
	return &outcome{status: http.StatusOK, out: resp, mi: resp.Session.Machine}
}

// handleSessionUpdate serves POST /v1/sessions/{id}/update: admit, then
// apply the batch under the session lock. The reported Stats are the
// machine's counter delta across the batch — the simulated cost of the
// batch's envelope passes and derivation.
func (s *Server) handleSessionUpdate(w http.ResponseWriter, r *http.Request, c *call) (o *outcome) {
	id := r.PathValue("id")
	c.sid, c.extra = id, slog.Int("deltas", 0)
	var req api.SessionUpdateRequest
	if o = s.decode(w, r, c, &req, func() int { return req.V }); o != nil {
		return o
	}
	c.extra = slog.Int("deltas", len(req.Deltas))
	deltas, err := deltasFrom(req.Deltas)
	if err != nil {
		return failed(err)
	}

	ctx, cancel := context.WithTimeout(r.Context(), s.sessionDeadline(id))
	defer cancel()
	release, rejected := s.admitted(ctx)
	if rejected != nil {
		return rejected
	}
	defer release()

	var resp *api.SessionUpdateResponse
	err = s.sessions.Do(id, func(ss *session.Session) error {
		before := ss.M.Stats()
		inserted, ast, err := ss.Eng.ApplyContext(ctx, deltas)
		if err != nil {
			return err
		}
		resp = &api.SessionUpdateResponse{
			V:           api.Version,
			Session:     sessionInfo(ss),
			Inserted:    inserted,
			DirtyLeaves: ast.DirtyLeaves,
			MergedNodes: ast.MergedNodes,
			Stats:       api.FromStats(ss.M.Stats().Sub(before)),
			Result:      sessionResult(ss.Eng.Algorithm(), ss.Eng.Result()),
		}
		return nil
	})
	if err != nil && ctx.Err() != nil && errors.Is(err, ctx.Err()) {
		return new(outcome).late(ctx.Err()) // discarded by ApplyContext: nothing committed
	}
	if err != nil {
		return failed(err)
	}
	return &outcome{status: http.StatusOK, out: resp, mi: resp.Session.Machine}
}

// handleSessionQuery serves GET /v1/sessions/{id}/query. The plain read
// returns the maintained answer without recomputation (and without
// admission — it does no simulated work). With ?verify=1 the request is
// admitted and the answer is re-derived from scratch on the session's
// machine, reporting whether the maintained result is bit-identical.
func (s *Server) handleSessionQuery(w http.ResponseWriter, r *http.Request, c *call) (o *outcome) {
	id := r.PathValue("id")
	verify := r.URL.Query().Get("verify") == "1"
	c.sid, c.extra = id, slog.Bool("verify", verify)
	ctx := r.Context()
	if verify {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.sessionDeadline(id))
		defer cancel()
		release, rejected := s.admitted(ctx)
		if rejected != nil {
			return rejected
		}
		defer release()
	}

	var resp *api.SessionQueryResponse
	err := s.sessions.Do(id, func(ss *session.Session) error {
		resp = &api.SessionQueryResponse{
			V:       api.Version,
			Session: sessionInfo(ss),
			Result:  sessionResult(ss.Eng.Algorithm(), ss.Eng.Result()),
		}
		if verify {
			rebuilt, err := ss.Eng.Rebuild()
			if err != nil {
				return err
			}
			ok := reflect.DeepEqual(ss.Eng.Result(), rebuilt)
			resp.Verified = &ok
		}
		return nil
	})
	if err != nil {
		return failed(err)
	}
	if verify && ctx.Err() != nil {
		return new(outcome).late(ctx.Err())
	}
	return &outcome{status: http.StatusOK, out: resp, mi: resp.Session.Machine}
}

// handleSessionDelete serves DELETE /v1/sessions/{id}: drop the session
// and return its machine to the pool. Not admitted — deletion frees
// capacity and must work on a saturated server.
func (s *Server) handleSessionDelete(w http.ResponseWriter, r *http.Request, c *call) (o *outcome) {
	c.sid = r.PathValue("id")
	var updates uint64
	err := s.sessions.Do(c.sid, func(ss *session.Session) error {
		updates = ss.Eng.Updates()
		return nil
	})
	if err == nil {
		err = s.sessions.Remove(c.sid)
	}
	if err != nil {
		return failed(err)
	}
	return &outcome{status: http.StatusOK, out: &api.SessionDeleteResponse{V: api.Version, ID: c.sid, Updates: updates}}
}
