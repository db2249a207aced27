// Package server is the batch-serving layer of the repository: an HTTP
// handler exposing every facade algorithm as POST /v1/<algorithm> with
// the versioned JSON schema of internal/api, backed by a sharded pool of
// pre-warmed machines so steady-state requests simulate without
// allocating, plus the stateful session endpoints under /v1/sessions.
//
// Every /v1 request runs through one lifecycle, serve: it times the
// request, runs the endpoint's handler, which returns the per-caller
// facts and the outcome, and then alone writes and records the response
// (front.Recorder), observes the request registry and emits the one
// structured log record. A one-shot's handler runs:
//
//	decode → version gate → resolve (topology, workers, canonical key)
//	→ response cache: a hit is answered here
//	→ validate (faults, system, machine size) → coalescing
//	→ admit (bounded queue + in-flight cap, deadline)
//	→ check a machine out of the pool (or construct on miss)
//	→ run the algorithm → convert the answer to its wire form
//	→ check the machine back in.
//
// A cache hit skips everything after the lookup. Its key is a canonical
// twin of a request that answered 200, and canon hashes exactly what
// validation reads, so the hit would pass validation too; a draining
// server skips the lookup, so admission still rejects a cached key.
//
// Fault-injected requests bypass the pool: the recovery harness
// (internal/fault.Run) owns machine construction across its re-run
// attempts, so those requests construct throwaway machines and report
// Pool.Bypassed.
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
	"dyncg/internal/coalesce"
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
	// keyed by the canonical request hash (internal/canon). The cache is
	// read as soon as the key is known, so a cached response is served
	// without validation, system build, deadline timer, admission or
	// simulated work, and is byte-identical to the original computation;
	// replay logs stay verifiable — provided replay runs with the same
	// cache configuration. 0 disables caching.
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
	s.mux.HandleFunc("POST /v1/{algorithm}", s.serve("", s.handleAlgorithm))
	s.mux.HandleFunc("POST /v1/sessions", s.serve("create", s.handleSessionCreate))
	s.mux.HandleFunc("POST /v1/sessions/{id}/update", s.serve("update", s.handleSessionUpdate))
	s.mux.HandleFunc("GET /v1/sessions/{id}/query", s.serve("query", s.handleSessionQuery))
	s.mux.HandleFunc("DELETE /v1/sessions/{id}", s.serve("delete", s.handleSessionDelete))
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

// InFlight returns the number of currently executing requests.
func (s *Server) InFlight() int { return len(s.sem) }

// unknownAlgorithm is the one /metrics label every 404 unknown_algorithm
// is observed under, so made-up names cannot add series.
const unknownAlgorithm = "unknown"

// call is the per-caller half of a served request, which its handler
// returns beside the outcome. A coalesced one-shot shares one outcome
// with every caller of its flight, so nothing per caller is written
// into the outcome: it lives here.
type call struct {
	raw    []byte      // the request body, for the replay record
	known  front.Known // what decode learnt of raw, so the record need not scan it
	source string      // one-shot: the X-Dyncg-Source value
	n      int         // one-shot: the system's point count
	sid    string      // session: the session addressed
	extra  slog.Attr   // session: the endpoint's own log attribute, if any
}

// handler is one /v1 endpoint: it fills in the per-caller facts of c
// and returns the outcome.
type handler func(w http.ResponseWriter, r *http.Request, c *call) *outcome

// serve returns the lifecycle every /v1 endpoint runs under. endpoint
// names the session endpoint ("create", "update", "query", "delete"),
// or is empty for a one-shot POST /v1/<algorithm>. serve times the
// request and runs h, answering a panic in h with a typed 500
// internal; then it alone writes and records the response, observes
// the request registry (under the algorithm, or sessions.<endpoint>)
// and emits the request's structured record, at error level for a 5xx.
func (s *Server) serve(endpoint string, h handler) http.HandlerFunc {
	label := "sessions." + endpoint
	return func(w http.ResponseWriter, r *http.Request) {
		started := time.Now()
		if endpoint != "" {
			s.sessions.Sweep() // lazy TTL eviction rides the session paths
		}
		var c call
		o := contained(h, w, r, &c)
		metric := label
		if endpoint == "" {
			w.Header().Set("X-Dyncg-Source", c.source)
			metric = r.PathValue("algorithm")
			if e, ok := o.out.(*api.Error); ok && e.Code == api.CodeUnknownAlgorithm {
				metric = unknownAlgorithm
			}
		}
		// Every body an outcome carries is json.Marshal's output, or
		// cached bytes that were.
		status, body := o.Wire()
		s.rec.Send(w, r, status, body, c.raw, c.known|front.BodyEmbedded, api.ReplayMeta{
			Topology:  o.mi.Topology,
			PEs:       o.mi.PEs,
			Workers:   o.mi.Workers,
			FaultSeed: o.faultSeed,
			Session:   c.sid,
		})
		lat := time.Since(started)
		s.met.Observe(metric, status, lat)
		if endpoint == "update" && status == http.StatusOK {
			s.sessMet.observeUpdate(lat)
		}
		lvl := slog.LevelInfo
		if status >= http.StatusInternalServerError {
			lvl = slog.LevelError
		}
		if endpoint != "" {
			attrs := [...]slog.Attr{
				slog.String("endpoint", endpoint),
				slog.String("session_id", c.sid),
				slog.Int("status", status),
				slog.Duration("latency", lat),
				c.extra,
			}
			n := len(attrs)
			if c.extra.Key == "" {
				n--
			}
			s.logRecord(r.Context(), lvl, "session", attrs[:n]...)
			return
		}
		s.logRecord(r.Context(), lvl, "request",
			slog.String("algorithm", r.PathValue("algorithm")),
			slog.Int("status", status),
			slog.Duration("latency", lat),
			slog.Int("n", c.n),
			slog.String("topology", o.mi.Topology),
			slog.Int("pes", o.mi.PEs),
			slog.Int("workers", o.mi.Workers),
			slog.Bool("pool_hit", o.pi.Hit),
			slog.Bool("pool_bypassed", o.pi.Bypassed),
			slog.String("source", c.source),
			slog.Int64("sim_time", o.sim),
			slog.String("error", o.errMsg),
		)
	}
}

// logRecord hands one structured record straight to the logger's
// handler. It is Logger.LogAttrs without the caller's program counter:
// no handler the daemon builds sets AddSource, so the runtime.Callers
// walk LogAttrs pays for it on every record would buy nothing, and the
// written bytes are the same.
func (s *Server) logRecord(ctx context.Context, lvl slog.Level, msg string, attrs ...slog.Attr) {
	h := s.log.Handler()
	if !h.Enabled(ctx, lvl) {
		return
	}
	rec := slog.NewRecord(time.Now(), lvl, msg, 0)
	rec.AddAttrs(attrs...)
	_ = h.Handle(ctx, rec) // as in LogAttrs: a failed log write changes no answer
}

// contained runs h and turns a panic into a typed 500 internal
// outcome, so the request is still answered, recorded, observed and
// logged. The facts h put in c before it panicked are kept.
func contained(h handler, w http.ResponseWriter, r *http.Request, c *call) (o *outcome) {
	defer func() {
		if p := recover(); p != nil {
			if p == http.ErrAbortHandler {
				panic(p)
			}
			o = fail(http.StatusInternalServerError, api.CodeInternal, fmt.Errorf("server: panic serving request: %v", p))
		}
	}()
	return h(w, r, c)
}

// admitted applies admission control: reject when draining, 429 when
// the wait queue is full, then wait for an execution slot until ctx,
// which carries the request's deadline, is done. It returns the slot's
// release, or the rejection.
func (s *Server) admitted(ctx context.Context) (release func(), rejected *outcome) {
	reject := func(st int, code api.ErrorCode) (func(), *outcome) {
		return nil, fail(st, code, fmt.Errorf("server: request not admitted: %s", code))
	}
	if s.draining.Load() {
		return reject(http.StatusServiceUnavailable, api.CodeDraining)
	}
	select {
	case s.queue <- struct{}{}:
	default:
		return reject(http.StatusTooManyRequests, api.CodeQueueFull)
	}
	select {
	case s.sem <- struct{}{}:
		<-s.queue
		if ctx.Err() == nil {
			return func() { <-s.sem }, nil
		}
		<-s.sem
	case <-ctx.Done():
		<-s.queue
	}
	return reject(http.StatusServiceUnavailable, api.CodeDeadlineQueued)
}

// deadline resolves a request's deadline_ms option: the server default
// when it is unset.
func (s *Server) deadline(ms int64) time.Duration {
	if ms > 0 {
		return time.Duration(ms) * time.Millisecond
	}
	return s.cfg.Deadline
}

// sizeClass returns the pool key of a request resolved as res, for a
// system of n points of motion degree k and the client's PEs floor,
// and the PE count the algorithm prescribes (need) before rounding.
func sizeClass(alg algo.Algorithm, res front.Resolved, n, k, pes int) (key Key, need int, err error) {
	need = max(alg.PEs(string(res.Topology), n, k), pes)
	size, err := topo.Size(res.Topology, need)
	return Key{Topo: string(res.Topology), PEs: size, Workers: res.Workers}, need, err
}

// info is the machine report of a request served on key's size class.
func (k Key) info() api.MachineInfo {
	return api.MachineInfo{Topology: k.Topo, PEs: k.PEs, Workers: infoWorkers(k.Workers)}
}

// checkout takes an idle machine of key's size class from the pool or,
// on a miss, constructs one for need PEs; hit reports which.
func (s *Server) checkout(key Key, need int) (m *machine.M, hit bool, err error) {
	if m = s.pool.Get(key); m != nil {
		return m, true, nil
	}
	m, err = topo.NewMachine(topo.Topology(key.Topo), need)
	return m, false, err
}

// infoWorkers is the worker count a response reports: the resolved
// count, or 0 when it runs serially.
func infoWorkers(workers int) int {
	if workers > 1 {
		return workers
	}
	return 0
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

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
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

// outcome is the complete result of serving one request: the HTTP
// status, the response envelope (out) or its exact wire bytes (body,
// without the trailing newline), and the metadata the replay record and
// the structured log want. Outcomes produced behind the front door are
// marshalled once and shared across coalesced callers.
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

// fail makes o answer with the typed error code under status st,
// keeping what o already records of the machine, and returns o.
func (o *outcome) fail(st int, code api.ErrorCode, err error) *outcome {
	o.status, o.out, o.errMsg = st, api.NewError(code, err.Error()), err.Error()
	return o
}

// failed makes o answer with err's own status and code (errStatus).
func (o *outcome) failed(err error) *outcome {
	st, code := errStatus(err)
	return o.fail(st, code, err)
}

// late makes o answer a request whose deadline passed while it
// executed, err being its context's error: 504 deadline_exceeded, which
// replay skips as load-dependent.
func (o *outcome) late(err error) *outcome {
	return o.fail(http.StatusGatewayTimeout, api.CodeDeadlineExceeded,
		fmt.Errorf("server: deadline expired during execution: %w", err))
}

// fail and failed answer a request that failed before it reached a
// machine.
func fail(st int, code api.ErrorCode, err error) *outcome { return new(outcome).fail(st, code, err) }
func failed(err error) *outcome                           { return new(outcome).failed(err) }

// Wire returns the status and wire bytes, encoding o.out on first use.
// Marshal cannot fail for the envelope types this package produces; the
// fallback degrades to an internal-error envelope rather than panicking
// on a future payload that breaks the invariant.
func (o *outcome) Wire() (int, []byte) {
	if o.body == nil {
		b, err := json.Marshal(o.out)
		if err != nil {
			o.fail(http.StatusInternalServerError, api.CodeInternal, fmt.Errorf("server: encoding response: %w", err))
			b, _ = json.Marshal(o.out)
		}
		o.body = b
	}
	return o.status, o.body
}

// decode reads a request body under the server's body cap into c.raw,
// decodes it into v — api.DecodeRequest for a one-shot *api.Request,
// json.Unmarshal for a session body — and applies the version gate. A
// body that decodes is JSON, and one api.DecodeRequest found verbatim
// is embedded as is; decode notes both in c.known for the replay
// record. A non-nil outcome is the 400/413 failure.
func (s *Server) decode(w http.ResponseWriter, r *http.Request, c *call, v any, version func() int) *outcome {
	raw, st, err := front.ReadBody(w, r, s.cfg.MaxBody)
	c.raw = raw
	if st != 0 {
		return fail(st, api.CodeBadRequest, err)
	}
	verbatim := false
	if req, ok := v.(*api.Request); ok {
		verbatim, err = api.DecodeRequest(raw, req)
	} else {
		err = json.Unmarshal(raw, v)
	}
	if err != nil {
		return fail(http.StatusBadRequest, api.CodeBadRequest, fmt.Errorf("server: decoding request: %w", err))
	}
	c.known = front.RawJSON
	if verbatim {
		c.known |= front.RawEmbedded
	}
	if got := version(); got != api.Version {
		return fail(http.StatusBadRequest, api.CodeBadVersion,
			fmt.Errorf("server: unsupported schema version %d (want %d)", got, api.Version))
	}
	return nil
}

// handleAlgorithm serves POST /v1/<algorithm>: decode and resolve,
// answer from the response cache if it can, else validate and join an
// identical in-flight computation or compute. Every response carries
// X-Dyncg-Source: computed|coalesced|cache.
func (s *Server) handleAlgorithm(w http.ResponseWriter, r *http.Request, c *call) (o *outcome) {
	c.source = front.SourceComputed
	name := r.PathValue("algorithm")
	alg, ok := algo.Lookup(name)
	if !ok {
		return fail(http.StatusNotFound, api.CodeUnknownAlgorithm,
			fmt.Errorf("server: unknown algorithm %q", name))
	}
	var req api.Request
	if o = s.decode(w, r, c, &req, func() int { return req.V }); o != nil {
		return o
	}
	res, err := front.Resolve(name, &req, runtime.GOMAXPROCS(0))
	if err != nil {
		return fail(http.StatusBadRequest, api.CodeBadTopology, err)
	}

	// A cacheable request (res.Key set) is looked up once, before any
	// validation: a hit is the canonical twin of a request that passed
	// it and answered 200. Its machine report comes from the request's
	// shape, so no system is built. A draining server skips the read, so
	// admission rejects even a request whose answer is cached.
	if !s.draining.Load() {
		if body, hit := s.stage.Get(res.Key); hit {
			c.source, c.n = front.SourceCache, res.Shape.N
			key, _, _ := sizeClass(alg, res, res.Shape.N, res.Shape.K, req.Options.PEs)
			return &outcome{status: http.StatusOK, body: body, mi: key.info()}
		}
	}

	spec, err := fault.ParseSpec(req.Options.Faults)
	if err != nil {
		return fail(http.StatusBadRequest, api.CodeBadFaults, err)
	}
	sys, err := algo.SystemFrom(req.System)
	if err != nil {
		return failed(err)
	}
	c.n = sys.N()
	key, need, err := sizeClass(alg, res, sys.N(), sys.K, req.Options.PEs)
	if err != nil {
		return failed(err)
	}

	ctx, cancel := context.WithTimeout(r.Context(), s.deadline(req.Options.DeadlineMs))
	defer cancel()

	// The miss path of the front door: join an identical in-flight
	// computation, or lead one and cache its 200 answer.
	o, c.source, err = s.stage.Do(ctx, res.Key,
		func() (*outcome, error) { return s.compute(ctx, name, alg, &req, sys, spec, key, need), nil })
	switch {
	case errors.Is(err, coalesce.ErrLeaderPanicked):
		// The leader of this follower's flight panicked; serve answers
		// the leader itself the same way.
		o = fail(http.StatusInternalServerError, api.CodeInternal, fmt.Errorf("server: %w", err))
	case err != nil:
		// This follower's deadline expired while the leader was still
		// computing. 503 is an admission artifact: replay skips it like
		// any other load-dependent rejection.
		o = fail(http.StatusServiceUnavailable, api.CodeCoalesceTimeout,
			fmt.Errorf("server: deadline expired waiting for coalesced computation: %w", err))
	}
	return o
}

// compute runs one resolved request through admission, machine
// checkout (or the fault-recovery harness), the algorithm, and wire
// conversion. key is the size class, need the PEs the theorem
// prescribes before rounding. It is the single computation a coalesced
// flight performs on behalf of all its callers.
func (s *Server) compute(ctx context.Context, name string, alg algo.Algorithm, req *api.Request, sys *motion.System, spec fault.Spec, key Key, need int) *outcome {
	release, rejected := s.admitted(ctx)
	if rejected != nil {
		return rejected
	}
	defer release()
	if s.hookAdmitted != nil {
		s.hookAdmitted()
	}
	if ctx.Err() != nil {
		return fail(http.StatusServiceUnavailable, api.CodeDeadlineQueued,
			fmt.Errorf("server: deadline expired before execution: %w", ctx.Err()))
	}

	tp := topo.Topology(key.Topo)
	o := &outcome{}
	var (
		stats    machine.Stats
		freport  *api.FaultReport
		tr       *trace.Tracer
		result   any
		runErr   error
		costTree string
	)
	if !spec.Zero() {
		// Fault-injected runs bypass the pool: the recovery harness owns
		// machine construction across its remap-and-rerun attempts.
		o.pi.Bypassed = true
		o.faultSeed = req.Options.FaultSeed
		net, err := topo.NewNetwork(tp, need)
		if err != nil {
			return o.failed(err)
		}
		plan := fault.NewPlan(spec, req.Options.FaultSeed)
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
			o.mi = api.MachineInfo{Topology: key.Topo, PEs: res.Topo.Size(), Workers: infoWorkers(key.Workers)}
			freport = &api.FaultReport{
				Attempts:    res.Attempts,
				Transients:  res.Transients,
				RetryRounds: res.RetryRounds,
				Failed:      res.Failed,
			}
		}
	} else {
		m, hit, err := s.checkout(key, need)
		o.pi.Hit = hit
		if err != nil {
			return o.failed(err)
		}
		// The machine goes back to the pool only if the algorithm
		// returned: one it panicked in may hold any state, so it is
		// dropped.
		ran := false
		defer func() {
			if ran {
				s.pool.Put(key, m)
			}
		}()
		o.mi = api.MachineInfo{Topology: key.Topo, PEs: m.Size(), Workers: infoWorkers(key.Workers)}
		if req.Options.Trace {
			tr = trace.Attach(m, name)
		}
		if s.hookRunning != nil {
			s.hookRunning()
		}
		result, runErr = alg.Run(m, sys, req)
		ran = true
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
		return o.failed(runErr)
	}
	if ctx.Err() != nil {
		return o.late(ctx.Err())
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
