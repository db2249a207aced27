package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"runtime"
	"sync/atomic"
	"time"

	"dyncg/internal/algo"
	"dyncg/internal/api"
	"dyncg/internal/fault"
	"dyncg/internal/front"
	"dyncg/internal/machine"
	"dyncg/internal/motion"
	"dyncg/internal/rcache"
	"dyncg/internal/replaylog"
	"dyncg/internal/session"
	"dyncg/internal/topo"
	"dyncg/internal/trace"
)

// DefaultCacheBytes is the response-cache bound the daemon uses when
// caching is enabled without an explicit size (dyncgd -rcache-bytes).
// Replay of a trace recorded with caching enabled must run with the
// same bound, so the default is a named constant both sides share.
const DefaultCacheBytes = 32 << 20

// Config configures a Server. The zero value gets sensible defaults —
// with the front door (response cache and request coalescing) disabled:
// both change which requests perform simulated work, so they are strict
// opt-ins and every pre-existing Config keeps its meaning.
type Config struct {
	// PoolCap is the maximum number of idle machines retained across all
	// size classes (0 = 32; negative disables pooling entirely).
	PoolCap int
	// PoolMaxPEs bounds the total PE count across idle pooled machines —
	// the memory control at large n, where a single 2^20-PE machine
	// holds tens of megabytes of register and arena buffers (0 = 2^22,
	// about four idle 2^20-PE machines; negative = unbounded).
	PoolMaxPEs int
	// MaxInFlight caps concurrently executing requests (0 = GOMAXPROCS).
	MaxInFlight int
	// MaxQueue caps requests waiting for an execution slot; beyond it
	// requests are rejected with 429 (0 = 4×MaxInFlight).
	MaxQueue int
	// Deadline is the default per-request deadline, queueing included
	// (0 = 30s). Requests may set their own via options.deadline_ms.
	Deadline time.Duration
	// MaxBody caps the request body size (0 = 8 MiB).
	MaxBody int64
	// MaxSessions caps concurrently live scenario sessions, each of which
	// pins one machine for its lifetime (0 = 64; negative = unbounded).
	MaxSessions int
	// SessionTTL evicts sessions idle longer than this, returning their
	// machines to the pool (0 = 15m; negative disables eviction). Expiry
	// is swept lazily from the serving paths — no janitor goroutine.
	SessionTTL time.Duration
	// CacheBytes, when positive, enables the response cache: a
	// bounded-bytes LRU (internal/rcache) of exact wire response bytes
	// keyed by the canonical request hash (internal/canon). Cached
	// responses are served without admission or simulated work and are
	// byte-identical to the original computation, so replay logs stay
	// verifiable — provided replay runs with the same cache
	// configuration. 0 disables caching.
	CacheBytes int64
	// Coalesce, when true, merges identical in-flight one-shot requests
	// (equal canonical hashes) into a single pool computation whose
	// response bytes fan out to every merged caller (internal/coalesce).
	// Sessions and fault-injected requests are never coalesced.
	Coalesce bool
	// MemberID is this process's identity in a fleet: stamped into the
	// X-Dyncg-Member response header, reported by /v1/cluster, and
	// salted into minted session IDs so IDs from different worker
	// processes never collide (empty = "local", unsalted IDs).
	MemberID string
	// FleetIDs lists every member of the fleet this process belongs to
	// (MemberID included). With two or more members, minted session IDs
	// must consistent-hash back to MemberID on the fleet's named ring,
	// so the front door's ID-routed session traffic always finds the
	// process holding the session. Empty for standalone servers.
	FleetIDs []string
	// Logger receives one structured record per request (nil = discard).
	Logger *slog.Logger
	// ReplayLog, when non-nil, records every served /v1/* request and
	// response into the hash-chained computation log (internal/replaylog)
	// in arrival order. Nil disables recording at the cost of one
	// nil-check on the hot path.
	ReplayLog *replaylog.Log
}

// Server is the HTTP serving surface: POST /v1/<algorithm> for every
// facade algorithm, plus GET /healthz and GET /metrics. Construct with
// New, mount Handler on an http.Server, and flip SetDraining(true)
// before shutdown so the health check fails while in-flight requests
// finish.
type Server struct {
	cfg      Config
	pool     *Pool
	met      *Metrics
	sem      chan struct{} // executing requests
	queue    chan struct{} // executing + waiting requests
	draining atomic.Bool
	log      *slog.Logger
	rec      front.Recorder
	mux      *http.ServeMux
	member   string
	sessions *session.Registry
	sessMet  *sessionMetrics
	rc       *rcache.Cache // nil when caching is disabled
	stage    *front.Stage[*outcome]

	hookAdmitted func() // test seam: runs after admission, before machine checkout
	hookRunning  func() // test seam: runs after machine checkout, before the algorithm
}

// New constructs a Server from the config (zero values defaulted).
func New(cfg Config) *Server {
	if cfg.PoolCap == 0 {
		cfg.PoolCap = 32
	}
	if cfg.PoolMaxPEs == 0 {
		cfg.PoolMaxPEs = 1 << 22
	}
	if cfg.MaxInFlight <= 0 {
		cfg.MaxInFlight = runtime.GOMAXPROCS(0)
	}
	if cfg.MaxQueue <= 0 {
		cfg.MaxQueue = 4 * cfg.MaxInFlight
	}
	if cfg.Deadline <= 0 {
		cfg.Deadline = 30 * time.Second
	}
	if cfg.MaxBody <= 0 {
		cfg.MaxBody = 8 << 20
	}
	if cfg.MaxSessions == 0 {
		cfg.MaxSessions = 64
	}
	if cfg.SessionTTL == 0 {
		cfg.SessionTTL = 15 * time.Minute
	}
	log := cfg.Logger
	if log == nil {
		log = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	s := &Server{
		cfg:   cfg,
		pool:  NewPoolPEs(cfg.PoolCap, cfg.PoolMaxPEs),
		met:   NewMetrics(),
		sem:   make(chan struct{}, cfg.MaxInFlight),
		queue: make(chan struct{}, cfg.MaxInFlight+cfg.MaxQueue),
		log:   log,
		rec:   front.Recorder{Log: cfg.ReplayLog, Logger: log},
		mux:   http.NewServeMux(),
		rc:    rcache.New(cfg.CacheBytes),
	}
	s.stage = front.NewStage[*outcome](s.rc, cfg.Coalesce)
	s.member = cfg.MemberID
	if s.member == "" {
		s.member = "local"
	}
	s.sessMet = newSessionMetrics()
	s.sessions = session.NewRegistry(cfg.MaxSessions, cfg.SessionTTL, s.releaseSession)
	if cfg.MemberID != "" {
		s.sessions.SetIDPrefix(cfg.MemberID)
	}
	if check := fleetIDCheck(cfg); check != nil {
		s.sessions.SetIDCheck(check)
	}
	s.mux.HandleFunc("POST /v1/{algorithm}", s.handleAlgorithm)
	s.mux.HandleFunc("POST /v1/sessions", s.handleSessionCreate)
	s.mux.HandleFunc("POST /v1/sessions/{id}/update", s.handleSessionUpdate)
	s.mux.HandleFunc("GET /v1/sessions/{id}/query", s.handleSessionQuery)
	s.mux.HandleFunc("DELETE /v1/sessions/{id}", s.handleSessionDelete)
	s.mux.HandleFunc("GET /v1/cluster", s.handleCluster)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	return s
}

// Handler returns the server's HTTP handler (the server itself, so
// every response carries the identity headers).
func (s *Server) Handler() http.Handler { return s }

// Pool returns the machine pool (exposed for tests and metrics).
func (s *Server) Pool() *Pool { return s.pool }

// Metrics returns the request-metrics registry.
func (s *Server) Metrics() *Metrics { return s.met }

// RCacheStats returns a snapshot of the response-cache counters (all
// zero when caching is disabled).
func (s *Server) RCacheStats() rcache.Stats { return s.rc.Stats() }

// CoalesceMerged returns how many requests were merged into another
// caller's in-flight computation (0 when coalescing is disabled).
func (s *Server) CoalesceMerged() int64 { return s.stage.Merged() }

// SetDraining flips drain mode: /healthz turns 503 and new algorithm
// requests are rejected, while admitted requests run to completion.
func (s *Server) SetDraining(v bool) { s.draining.Store(v) }

// Draining reports whether the server is draining.
func (s *Server) Draining() bool { return s.draining.Load() }

// InFlight returns the number of currently executing requests.
func (s *Server) InFlight() int { return len(s.sem) }

// admit applies admission control: reject when draining, 429 when the
// wait queue is full, then block for an execution slot until the
// request's deadline. The returned release frees the slot.
func (s *Server) admit(ctx context.Context) (release func(), status int, code api.ErrorCode) {
	if s.draining.Load() {
		return nil, http.StatusServiceUnavailable, api.CodeDraining
	}
	select {
	case s.queue <- struct{}{}:
	default:
		return nil, http.StatusTooManyRequests, api.CodeQueueFull
	}
	select {
	case s.sem <- struct{}{}:
		<-s.queue
		if ctx.Err() != nil {
			<-s.sem
			return nil, http.StatusServiceUnavailable, api.CodeDeadlineQueued
		}
		return func() { <-s.sem }, 0, ""
	case <-ctx.Done():
		<-s.queue
		return nil, http.StatusServiceUnavailable, api.CodeDeadlineQueued
	}
}

// deadline resolves a request's deadline_ms option: the server default
// when it is unset.
func (s *Server) deadline(ms int64) time.Duration {
	if ms > 0 {
		return time.Duration(ms) * time.Millisecond
	}
	return s.cfg.Deadline
}

// errStatus maps the facade's typed errors to HTTP statuses and the
// typed error codes of the v1 envelope.
func errStatus(err error) (int, api.ErrorCode) {
	switch {
	case errors.Is(err, motion.ErrBadSystem):
		return http.StatusBadRequest, api.CodeBadSystem
	case errors.Is(err, machine.ErrTooFewPEs):
		return http.StatusUnprocessableEntity, api.CodeTooFewPEs
	case errors.Is(err, fault.ErrNotSurvivable):
		return http.StatusServiceUnavailable, api.CodeNotSurvivable
	case errors.Is(err, session.ErrNoSession):
		return http.StatusNotFound, api.CodeNoSession
	case errors.Is(err, session.ErrTooManySessions):
		return http.StatusTooManyRequests, api.CodeTooManySessions
	}
	return http.StatusInternalServerError, api.CodeInternal
}

func apiError(code api.ErrorCode, err error) *api.Error {
	return api.NewError(code, err.Error())
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// send encodes o (once: a shared outcome is already encoded) and
// writes and records it.
func (s *Server) send(w http.ResponseWriter, r *http.Request, o *outcome, raw []byte, meta api.ReplayMeta) {
	status, body := o.Wire()
	s.rec.Send(w, r, status, body, raw, meta)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	io.WriteString(w, "ok\n")
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.sessions.Sweep() // lazy TTL eviction rides the scrape path
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	s.writeMetrics(w)
}

// outcome is the complete result of serving one algorithm request: the
// HTTP status, the response envelope (out) or its exact wire bytes
// (body, without the trailing newline), and the metadata the replay
// record and the structured log want. Outcomes produced behind the
// front door are marshalled once and shared across coalesced callers.
type outcome struct {
	status    int
	out       any
	body      []byte
	mi        api.MachineInfo
	pi        api.PoolInfo
	sim       int64
	errMsg    string
	faultSeed int64
}

func errOutcome(st int, code api.ErrorCode, err error) *outcome {
	return &outcome{status: st, out: apiError(code, err), errMsg: err.Error()}
}

// Wire returns the status and wire bytes, encoding o.out on first use.
// Marshal cannot fail for the envelope types this package produces; the
// fallback degrades to an internal-error envelope rather than panicking
// on a future payload that breaks the invariant.
func (o *outcome) Wire() (int, []byte) {
	if o.body == nil {
		b, err := json.Marshal(o.out)
		if err != nil {
			e := apiError(api.CodeInternal, fmt.Errorf("server: encoding response: %w", err))
			o.status, o.out, o.errMsg = http.StatusInternalServerError, e, err.Error()
			b, _ = json.Marshal(e)
		}
		o.body = b
	}
	return o.status, o.body
}

// algRequest is one decoded, validated, fully resolved one-shot
// request — everything compute needs, independent of the HTTP layer.
type algRequest struct {
	name        string
	alg         algo.Algorithm
	req         *api.Request
	tp          topo.Topology
	spec        fault.Spec
	sys         *motion.System
	workers     int // resolved pool-key worker count (≥ 1)
	infoWorkers int // reported worker count (0 when serial)
	need        int // PEs the theorem prescribes (pre-rounding)
	classSize   int // constructed machine size (post-rounding)
}

// handleAlgorithm serves POST /v1/<algorithm>: decode, validate, then
// either serve from the response cache, join an identical in-flight
// computation, or compute (admit, check out a machine, run, convert).
// Every response carries X-Dyncg-Source: computed|coalesced|cache.
func (s *Server) handleAlgorithm(w http.ResponseWriter, r *http.Request) {
	started := time.Now()
	name := r.PathValue("algorithm")

	var (
		o      *outcome
		raw    []byte
		sysN   int
		source = front.SourceComputed
	)
	defer func() {
		if o == nil {
			o = errOutcome(http.StatusInternalServerError, api.CodeInternal,
				errors.New("server: request produced no outcome"))
		}
		w.Header().Set("X-Dyncg-Source", source)
		s.send(w, r, o, raw, api.ReplayMeta{
			Topology:  o.mi.Topology,
			PEs:       o.mi.PEs,
			Workers:   o.mi.Workers,
			FaultSeed: o.faultSeed,
		})
		lat := time.Since(started)
		s.met.Observe(name, o.status, lat)
		lvl := slog.LevelInfo
		if o.status >= http.StatusInternalServerError {
			lvl = slog.LevelError
		}
		s.log.LogAttrs(r.Context(), lvl, "request",
			slog.String("algorithm", name),
			slog.Int("status", o.status),
			slog.Duration("latency", lat),
			slog.Int("n", sysN),
			slog.String("topology", o.mi.Topology),
			slog.Int("pes", o.mi.PEs),
			slog.Int("workers", o.mi.Workers),
			slog.Bool("pool_hit", o.pi.Hit),
			slog.Bool("pool_bypassed", o.pi.Bypassed),
			slog.String("source", source),
			slog.Int64("sim_time", o.sim),
			slog.String("error", o.errMsg),
		)
	}()
	fail := func(st int, code api.ErrorCode, err error) { o = errOutcome(st, code, err) }

	alg, ok := algo.Lookup(name)
	if !ok {
		fail(http.StatusNotFound, api.CodeUnknownAlgorithm,
			fmt.Errorf("server: unknown algorithm %q", name))
		return
	}

	var req api.Request
	body, st, code, err := decode(w, r, s.cfg.MaxBody, &req, func() int { return req.V })
	raw = body
	if st != 0 {
		fail(st, code, err)
		return
	}
	res, err := front.Resolve(name, &req, runtime.GOMAXPROCS(0))
	if err != nil {
		fail(http.StatusBadRequest, api.CodeBadTopology, err)
		return
	}
	tp := res.Topology
	spec, err := fault.ParseSpec(req.Options.Faults)
	if err != nil {
		fail(http.StatusBadRequest, api.CodeBadFaults, err)
		return
	}
	sys, err := algo.SystemFrom(req.System)
	if err != nil {
		st, code := errStatus(err)
		fail(st, code, err)
		return
	}
	sysN = sys.N()

	workers := res.Workers
	infoWorkers := 0
	if workers > 1 {
		infoWorkers = workers
	}

	need := max(alg.PEs(string(tp), sys), req.Options.PEs)
	classSize, err := topo.Size(tp, need)
	if err != nil {
		st, code := errStatus(err)
		fail(st, code, err)
		return
	}

	ar := &algRequest{
		name:        name,
		alg:         alg,
		req:         &req,
		tp:          tp,
		spec:        spec,
		sys:         sys,
		workers:     workers,
		infoWorkers: infoWorkers,
		need:        need,
		classSize:   classSize,
	}

	ctx, cancel := context.WithTimeout(r.Context(), s.deadline(req.Options.DeadlineMs))
	defer cancel()

	// Front door: a cacheable request (res.Key set) with the cache or
	// the coalescer on is served from the cache with no admission and no
	// simulated work, joins an identical in-flight computation, or leads
	// one. A draining server skips the cache read, so admission rejects
	// even a request whose answer is cached.
	o, source, err = s.stage.Do(ctx, res.Key, !s.draining.Load(),
		func(body []byte) *outcome {
			return &outcome{
				status: http.StatusOK,
				body:   body,
				mi:     api.MachineInfo{Topology: string(tp), PEs: classSize, Workers: infoWorkers},
			}
		},
		func() (*outcome, error) { return s.compute(ctx, ar), nil })
	if err != nil {
		// This follower's deadline expired while the leader was still
		// computing. 503 is an admission artifact: replay skips it like
		// any other load-dependent rejection.
		fail(http.StatusServiceUnavailable, api.CodeCoalesceTimeout,
			fmt.Errorf("server: deadline expired waiting for coalesced computation: %w", err))
	}
}

// compute runs one resolved request through admission, machine
// checkout (or the fault-recovery harness), the algorithm, and wire
// conversion. It is the single computation a coalesced flight performs
// on behalf of all its callers.
func (s *Server) compute(ctx context.Context, ar *algRequest) *outcome {
	o := &outcome{}
	fail := func(st int, code api.ErrorCode, err error) {
		o.status, o.out, o.errMsg = st, apiError(code, err), err.Error()
	}

	release, st, code := s.admit(ctx)
	if st != 0 {
		fail(st, code, fmt.Errorf("server: request not admitted: %s", code))
		return o
	}
	defer release()
	if s.hookAdmitted != nil {
		s.hookAdmitted()
	}
	if ctx.Err() != nil {
		fail(http.StatusServiceUnavailable, api.CodeDeadlineQueued,
			fmt.Errorf("server: deadline expired before execution: %w", ctx.Err()))
		return o
	}

	name, alg, req, tp, sys := ar.name, ar.alg, ar.req, ar.tp, ar.sys
	var (
		stats    machine.Stats
		freport  *api.FaultReport
		tr       *trace.Tracer
		result   any
		runErr   error
		costTree string
	)
	if !ar.spec.Zero() {
		// Fault-injected runs bypass the pool: the recovery harness owns
		// machine construction across its remap-and-rerun attempts.
		o.pi.Bypassed = true
		o.faultSeed = req.Options.FaultSeed
		net, err := topo.NewNetwork(tp, ar.need)
		if err != nil {
			st, code := errStatus(err)
			fail(st, code, err)
			return o
		}
		plan := fault.NewPlan(ar.spec, req.Options.FaultSeed)
		var ropts []fault.RunOption
		if req.Options.Trace {
			// A fresh tracer per attempt; the final attempt's tree is the
			// one reported (aborted attempts die mid-span).
			ropts = append(ropts, fault.WithAttach(func(fm *machine.M, attempt int) {
				tr = trace.Attach(fm, name)
			}))
		}
		res, err := fault.Run(net, plan, func(fm *machine.M) error {
			var err error
			result, err = alg.Run(fm, sys, req)
			return err
		}, ropts...)
		runErr = err
		if res != nil {
			stats = res.Stats
			o.mi = api.MachineInfo{Topology: string(tp), PEs: res.Topo.Size(), Workers: ar.infoWorkers}
			freport = &api.FaultReport{
				Attempts:    res.Attempts,
				Transients:  res.Transients,
				RetryRounds: res.RetryRounds,
				Failed:      res.Failed,
			}
		}
	} else {
		key := Key{Topo: string(tp), PEs: ar.classSize, Workers: ar.workers}
		m := s.pool.Get(key)
		o.pi.Hit = m != nil
		if m == nil {
			var err error
			m, err = topo.NewMachine(tp, ar.need)
			if err != nil {
				st, code := errStatus(err)
				fail(st, code, err)
				return o
			}
		}
		defer s.pool.Put(key, m)
		o.mi = api.MachineInfo{Topology: string(tp), PEs: m.Size(), Workers: ar.infoWorkers}
		if req.Options.Trace {
			tr = trace.Attach(m, name)
		}
		if s.hookRunning != nil {
			s.hookRunning()
		}
		result, runErr = alg.Run(m, sys, req)
		stats = m.Stats()
	}
	o.sim = stats.Time()

	if tr != nil {
		root := tr.Finish()
		if runErr == nil {
			var buf bytes.Buffer
			trace.WriteCostTree(&buf, root, req.Options.CostDepth)
			costTree = buf.String()
		}
	}
	if runErr != nil {
		st, code := errStatus(runErr)
		fail(st, code, runErr)
		return o
	}
	if ctx.Err() != nil {
		fail(http.StatusGatewayTimeout, api.CodeDeadlineExceeded,
			fmt.Errorf("server: deadline expired during execution: %w", ctx.Err()))
		return o
	}

	o.status = http.StatusOK
	o.out = &api.Response{
		V:         api.Version,
		Algorithm: name,
		Machine:   o.mi,
		Stats:     api.FromStats(stats),
		Pool:      o.pi,
		Fault:     freport,
		CostTree:  costTree,
		Result:    result,
	}
	return o
}
