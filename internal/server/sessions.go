package server

// The stateful session endpoints: a session checks one machine out of
// the warm pool, builds an internal/session engine on it, and keeps both
// resident so each update batch pays only the engine's incremental dirty
// merge paths. DELETE (or TTL eviction) WarmResets the machine and
// returns it to the pool — the machine's lifecycle is pool → pinned →
// pool, never leaked, which TestSessionChurnPoolAccounting pins down.
//
//	POST   /v1/sessions              create (admitted; one from-scratch build)
//	POST   /v1/sessions/{id}/update  apply a batch (admitted; incremental)
//	GET    /v1/sessions/{id}/query   read the maintained answer (admitted
//	                                 only with ?verify=1, which re-derives
//	                                 from scratch and audits bit-identity)
//	DELETE /v1/sessions/{id}         release (not admitted; frees capacity)

import (
	"context"
	"encoding/json"
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
	infoWorkers := 0
	if ss.Workers > 1 {
		infoWorkers = ss.Workers
	}
	return api.SessionInfo{
		ID:        ss.ID,
		Algorithm: string(ss.Eng.Algorithm()),
		Machine:   api.MachineInfo{Topology: ss.Topo, PEs: ss.PEs, Workers: infoWorkers},
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

// sessionLog emits one structured record for a session endpoint.
func (s *Server) sessionLog(ctx context.Context, endpoint, id string, status int, lat time.Duration, attrs ...slog.Attr) {
	lvl := slog.LevelInfo
	if status >= http.StatusInternalServerError {
		lvl = slog.LevelError
	}
	base := []slog.Attr{
		slog.String("endpoint", endpoint),
		slog.String("session_id", id),
		slog.Int("status", status),
		slog.Duration("latency", lat),
	}
	s.log.LogAttrs(ctx, lvl, "session", append(base, attrs...)...)
}

// decode reads a request body under the server's body cap, decodes it
// into v and applies the version gate, returning the raw body bytes for
// the computation log. A non-zero status is a failure to answer with
// code and err.
func decode(w http.ResponseWriter, r *http.Request, maxBody int64, v any, version func() int) ([]byte, int, api.ErrorCode, error) {
	raw, st, err := front.ReadBody(w, r, maxBody)
	if st != 0 {
		return raw, st, api.CodeBadRequest, err
	}
	if err := json.Unmarshal(raw, v); err != nil {
		return raw, http.StatusBadRequest, api.CodeBadRequest, fmt.Errorf("server: decoding request: %w", err)
	}
	if got := version(); got != api.Version {
		return raw, http.StatusBadRequest, api.CodeBadVersion,
			fmt.Errorf("server: unsupported schema version %d (want %d)", got, api.Version)
	}
	return raw, 0, "", nil
}

// handleSessionCreate serves POST /v1/sessions: admit, pin a machine
// from the pool (or construct into the session's size class), build the
// engine from scratch, and register the session.
func (s *Server) handleSessionCreate(w http.ResponseWriter, r *http.Request) {
	started := time.Now()
	s.sessions.Sweep()
	var (
		status int
		out    any
		sid    string
		raw    []byte
		mi     api.MachineInfo
	)
	defer func() {
		s.send(w, r, &outcome{status: status, out: out}, raw, api.ReplayMeta{
			Topology: mi.Topology, PEs: mi.PEs, Workers: mi.Workers, Session: sid,
		})
		lat := time.Since(started)
		s.met.Observe("sessions.create", status, lat)
		s.sessionLog(r.Context(), "create", sid, status, lat)
	}()
	fail := func(st int, code api.ErrorCode, err error) {
		status, out = st, apiError(code, err)
	}

	var req api.SessionCreateRequest
	body, st, code, derr := decode(w, r, s.cfg.MaxBody, &req, func() int { return req.V })
	raw = body
	if st != 0 {
		fail(st, code, derr)
		return
	}
	sa, err := session.ParseAlgo(req.Algorithm)
	if err != nil {
		fail(http.StatusBadRequest, api.CodeUnknownAlgorithm, err)
		return
	}
	tp, err := front.Topology(req.Options.Topology)
	if err != nil {
		fail(http.StatusBadRequest, api.CodeBadTopology, err)
		return
	}
	if tp != topo.Hypercube && tp != topo.Mesh {
		fail(http.StatusBadRequest, api.CodeBadTopology,
			fmt.Errorf("server: sessions support mesh and hypercube machines, not %q", tp))
		return
	}
	sys, err := algo.SystemFrom(req.System)
	if err != nil {
		st, code := errStatus(err)
		fail(st, code, err)
		return
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
		st, code := errStatus(err)
		fail(st, code, err)
		return
	}
	workers := front.Workers(req.Options.Workers, runtime.GOMAXPROCS(0))

	deadline := s.deadline(req.Options.DeadlineMs)
	ctx, cancel := context.WithTimeout(r.Context(), deadline)
	defer cancel()
	release, st, code := s.admit(ctx)
	if st != 0 {
		fail(st, code, fmt.Errorf("server: request not admitted: %s", code))
		return
	}
	defer release()

	key := Key{Topo: string(tp), PEs: classSize, Workers: workers}
	m := s.pool.Get(key)
	var pi api.PoolInfo
	pi.Hit = m != nil
	if m == nil {
		m, err = topo.NewMachine(tp, need)
		if err != nil {
			st, code := errStatus(err)
			fail(st, code, err)
			return
		}
	}
	eng, err := session.New(m, cfg, sys.Points)
	if err != nil {
		s.pool.Put(key, m) // the machine is clean: New failed before mutating it, or its work is discarded by WarmReset on next checkout
		st, code := errStatus(err)
		fail(st, code, err)
		return
	}
	buildStats := m.Stats()
	ss, err := s.sessions.Add(eng, m, string(tp), workers, deadline)
	if err != nil {
		m.WarmReset()
		s.pool.Put(key, m)
		st, code := errStatus(err)
		fail(st, code, err)
		return
	}
	sid = ss.ID

	resp := &api.SessionCreateResponse{
		V:       api.Version,
		Session: sessionInfo(ss),
		Pool:    pi,
		Stats:   api.FromStats(buildStats),
		Result:  sessionResult(sa, eng.Result()),
	}
	mi = resp.Session.Machine
	status, out = http.StatusOK, resp
}

// handleSessionUpdate serves POST /v1/sessions/{id}/update: admit, then
// apply the batch under the session lock. The reported Stats are the
// machine's counter delta across the batch — the simulated cost of
// exactly the incremental recompute.
func (s *Server) handleSessionUpdate(w http.ResponseWriter, r *http.Request) {
	started := time.Now()
	s.sessions.Sweep()
	id := r.PathValue("id")
	var (
		status int
		out    any
		nd     int
		raw    []byte
		mi     api.MachineInfo
	)
	defer func() {
		s.send(w, r, &outcome{status: status, out: out}, raw, api.ReplayMeta{
			Topology: mi.Topology, PEs: mi.PEs, Workers: mi.Workers, Session: id,
		})
		lat := time.Since(started)
		s.met.Observe("sessions.update", status, lat)
		if status == http.StatusOK {
			s.sessMet.observeUpdate(lat)
		}
		s.sessionLog(r.Context(), "update", id, status, lat, slog.Int("deltas", nd))
	}()
	fail := func(st int, code api.ErrorCode, err error) {
		status, out = st, apiError(code, err)
	}

	var req api.SessionUpdateRequest
	body, st, code, derr := decode(w, r, s.cfg.MaxBody, &req, func() int { return req.V })
	raw = body
	if st != 0 {
		fail(st, code, derr)
		return
	}
	nd = len(req.Deltas)
	deltas, err := deltasFrom(req.Deltas)
	if err != nil {
		st, code := errStatus(err)
		fail(st, code, err)
		return
	}

	ctx, cancel := context.WithTimeout(r.Context(), s.sessionDeadline(id))
	defer cancel()
	release, st, code := s.admit(ctx)
	if st != 0 {
		fail(st, code, fmt.Errorf("server: request not admitted: %s", code))
		return
	}
	defer release()

	var resp *api.SessionUpdateResponse
	err = s.sessions.Do(id, func(ss *session.Session) error {
		before := ss.M.Stats()
		inserted, ast, err := ss.Eng.Apply(deltas)
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
	if err != nil {
		st, code := errStatus(err)
		fail(st, code, err)
		return
	}
	mi = resp.Session.Machine
	status, out = http.StatusOK, resp
}

// handleSessionQuery serves GET /v1/sessions/{id}/query. The plain read
// returns the maintained answer without recomputation (and without
// admission — it does no simulated work). With ?verify=1 the request is
// admitted and the answer is re-derived from scratch on the session's
// machine, reporting whether the maintained result is bit-identical.
func (s *Server) handleSessionQuery(w http.ResponseWriter, r *http.Request) {
	started := time.Now()
	s.sessions.Sweep()
	id := r.PathValue("id")
	verify := r.URL.Query().Get("verify") == "1"
	var (
		status int
		out    any
		mi     api.MachineInfo
	)
	defer func() {
		s.send(w, r, &outcome{status: status, out: out}, nil, api.ReplayMeta{
			Topology: mi.Topology, PEs: mi.PEs, Workers: mi.Workers, Session: id,
		})
		lat := time.Since(started)
		s.met.Observe("sessions.query", status, lat)
		s.sessionLog(r.Context(), "query", id, status, lat, slog.Bool("verify", verify))
	}()
	fail := func(st int, code api.ErrorCode, err error) {
		status, out = st, apiError(code, err)
	}

	if verify {
		ctx, cancel := context.WithTimeout(r.Context(), s.sessionDeadline(id))
		defer cancel()
		release, st, code := s.admit(ctx)
		if st != 0 {
			fail(st, code, fmt.Errorf("server: request not admitted: %s", code))
			return
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
		st, code := errStatus(err)
		fail(st, code, err)
		return
	}
	mi = resp.Session.Machine
	status, out = http.StatusOK, resp
}

// handleSessionDelete serves DELETE /v1/sessions/{id}: drop the session
// and return its machine to the pool. Not admitted — deletion frees
// capacity and must work on a saturated server.
func (s *Server) handleSessionDelete(w http.ResponseWriter, r *http.Request) {
	started := time.Now()
	s.sessions.Sweep()
	id := r.PathValue("id")
	var (
		status int
		out    any
	)
	defer func() {
		s.send(w, r, &outcome{status: status, out: out}, nil, api.ReplayMeta{Session: id})
		lat := time.Since(started)
		s.met.Observe("sessions.delete", status, lat)
		s.sessionLog(r.Context(), "delete", id, status, lat)
	}()

	var updates uint64
	err := s.sessions.Do(id, func(ss *session.Session) error {
		updates = ss.Eng.Updates()
		return nil
	})
	if err == nil {
		err = s.sessions.Remove(id)
	}
	if err != nil {
		st, code := errStatus(err)
		status, out = st, apiError(code, err)
		return
	}
	status = http.StatusOK
	out = &api.SessionDeleteResponse{V: api.Version, ID: id, Updates: updates}
}
