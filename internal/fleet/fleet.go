// Package fleet is the multi-process front door: one HTTP surface
// routing /v1/* traffic across N worker dyncgd processes with a
// consistent-hash ring (internal/shard.NamedRing). It is the only
// routing layer; a standalone dyncgd serves everything in one
// internal/server.Server.
//
// One-shot algorithm requests route by canonical hash (internal/canon)
// when cacheable, falling back to the machine size-class key for
// fault-injected requests, so identical requests always meet at the
// same worker's warm pool.
// Session creation round-robins across live members; each worker mints
// session IDs that consistent-hash home to it (server.Config.FleetIDs)
// and salts them with its member ID, so follow-up session requests
// route by ID straight to the process holding the pinned machine.
//
// The front door owns the response cache and the request coalescer:
// both sit in front of the ring, shared across every member, so a
// repeat of a request computed on member A is a cache hit even when
// the repeat would route to member B, and identical concurrent
// requests collapse into a single worker computation fleet-wide.
//
// Failure handling is bounded and typed. Forwarding errors mark the
// member down (a background prober marks it back up when /healthz
// recovers); stateless requests retry across the remaining live
// members in ring-sequence order, each member tried at most once, and
// exhaust into 503 no_members. Session requests never fail over — the
// session's machine lives in one process — so a downed home member
// answers 503 member_down until the prober sees it return.
package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dyncg/internal/api"
	"dyncg/internal/front"
	"dyncg/internal/rcache"
	"dyncg/internal/replaylog"
	"dyncg/internal/shard"
)

// Member names one worker process of the fleet.
type Member struct {
	// ID is the worker's stable identity: its -member-id flag, the key
	// it is hashed under on the ring, and the value of its
	// X-Dyncg-Member header.
	ID string `json:"id"`
	// URL is the worker's base URL (scheme://host:port, no path).
	URL string `json:"url"`
}

// Config configures a FrontDoor. The zero value of every optional
// field gets the same default the worker-side server uses, so a fleet
// config reads like a server config.
type Config struct {
	// Members is the fleet roster. At least one member is required;
	// IDs must be distinct.
	Members []Member
	// MaxBody caps inbound request bodies (0 = 8 MiB) — the same cap
	// the workers apply, enforced here so an oversize body is rejected
	// with the worker's exact envelope without crossing the network.
	MaxBody int64
	// Deadline bounds one forwarded request (0 = 30s).
	Deadline time.Duration
	// ProbeInterval is the health-probe period (0 = 1s; negative
	// disables the background prober — tests drive Probe directly).
	ProbeInterval time.Duration
	// CacheBytes enables the fleet-wide response cache (0 disables);
	// Coalesce the fleet-wide request coalescer.
	CacheBytes int64
	Coalesce   bool
	// Logger receives the front door's warnings and errors: member
	// health flips, a member marked down after a forward error, and
	// replay-log append failures. It gets no per-request record
	// (nil = discard).
	Logger *slog.Logger
	// ReplayLog, when non-nil, records the fleet-wide request stream —
	// every /v1/* request in front-door arrival order, each stamped
	// with the member that served it — on one hash chain.
	ReplayLog *replaylog.Log
	// Client issues the forwarded requests (nil = a default client;
	// tests inject one wired to httptest servers).
	Client *http.Client
}

// member is the front door's view of one worker.
type member struct {
	Member
	up atomic.Bool
	// proxied counts requests this member served.
	proxied atomic.Int64
}

// FrontDoor is the fleet proxy. Construct with New, optionally Start
// the background prober, mount Handler, and Close on shutdown.
type FrontDoor struct {
	cfg     Config
	ring    *shard.NamedRing
	members map[string]*member
	mux     *http.ServeMux
	next    atomic.Uint64 // round-robin cursor for session creation
	rc      *rcache.Cache
	stage   *front.Stage[*proxied]
	log     *slog.Logger
	rec     front.Recorder
	client  *http.Client

	retries   atomic.Int64 // stateless failovers after a transport error
	orphaned  atomic.Int64 // member_down rejections
	exhausted atomic.Int64 // no_members rejections

	stop chan struct{}
	wg   sync.WaitGroup
}

// New builds a front door over the fleet roster.
func New(cfg Config) (*FrontDoor, error) {
	if len(cfg.Members) == 0 {
		return nil, fmt.Errorf("fleet: empty member roster")
	}
	if cfg.MaxBody <= 0 {
		cfg.MaxBody = 8 << 20
	}
	if cfg.Deadline <= 0 {
		cfg.Deadline = 30 * time.Second
	}
	if cfg.ProbeInterval == 0 {
		cfg.ProbeInterval = time.Second
	}
	log := cfg.Logger
	if log == nil {
		log = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	ids := make([]string, 0, len(cfg.Members))
	members := make(map[string]*member, len(cfg.Members))
	for _, m := range cfg.Members {
		if m.ID == "" || m.URL == "" {
			return nil, fmt.Errorf("fleet: member needs both id and url: %+v", m)
		}
		if _, dup := members[m.ID]; dup {
			return nil, fmt.Errorf("fleet: duplicate member id %q", m.ID)
		}
		ids = append(ids, m.ID)
		mm := &member{Member: Member{ID: m.ID, URL: strings.TrimSuffix(m.URL, "/")}}
		mm.up.Store(true)
		members[m.ID] = mm
	}
	client := cfg.Client
	if client == nil {
		client = &http.Client{}
	}
	f := &FrontDoor{
		cfg:     cfg,
		ring:    shard.NewNamed(ids, 0),
		members: members,
		mux:     http.NewServeMux(),
		rc:      rcache.New(cfg.CacheBytes),
		log:     log,
		rec:     front.Recorder{Log: cfg.ReplayLog, Logger: log},
		client:  client,
		stop:    make(chan struct{}),
	}
	f.stage = front.NewStage[*proxied](f.rc, cfg.Coalesce)
	f.mux.HandleFunc("POST /v1/{algorithm}", f.handleAlgorithm)
	f.mux.HandleFunc("POST /v1/sessions", f.handleSessionCreate)
	f.mux.HandleFunc("POST /v1/sessions/{id}/update", f.handleSessionByID)
	f.mux.HandleFunc("GET /v1/sessions/{id}/query", f.handleSessionByID)
	f.mux.HandleFunc("DELETE /v1/sessions/{id}", f.handleSessionByID)
	f.mux.HandleFunc("GET /v1/cluster", f.handleCluster)
	f.mux.HandleFunc("GET /healthz", f.handleHealthz)
	f.mux.HandleFunc("GET /metrics", f.handleMetrics)
	return f, nil
}

// Handler returns the front door's HTTP handler.
func (f *FrontDoor) Handler() http.Handler { return f }

// ServeHTTP serves the fleet surface. Every response carries the
// schema-version header; proxied responses additionally carry the
// serving worker's identity headers, forwarded unchanged.
func (f *FrontDoor) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("X-Dyncg-Api-Version", fmt.Sprint(api.Version))
	f.mux.ServeHTTP(w, r)
}

// Start launches the background health prober (no-op when the probe
// interval is negative).
func (f *FrontDoor) Start() {
	if f.cfg.ProbeInterval < 0 {
		return
	}
	f.wg.Add(1)
	go func() {
		defer f.wg.Done()
		t := time.NewTicker(f.cfg.ProbeInterval)
		defer t.Stop()
		for {
			select {
			case <-f.stop:
				return
			case <-t.C:
				f.Probe()
			}
		}
	}()
}

// Close stops the prober and waits for it.
func (f *FrontDoor) Close() {
	close(f.stop)
	f.wg.Wait()
}

// Probe checks every member's /healthz once, marking members up or
// down by the result. The background prober calls it periodically;
// tests call it directly.
func (f *FrontDoor) Probe() {
	for _, id := range f.ring.IDs() {
		m := f.members[id]
		ctx, cancel := context.WithTimeout(context.Background(), f.cfg.Deadline)
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, m.URL+"/healthz", nil)
		if err != nil {
			cancel()
			continue
		}
		resp, err := f.client.Do(req)
		ok := false
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			ok = resp.StatusCode == http.StatusOK
		}
		cancel()
		if was := m.up.Swap(ok); was != ok {
			f.log.LogAttrs(context.Background(), slog.LevelWarn, "member health flip",
				slog.String("member", id), slog.Bool("up", ok))
		}
	}
}

// proxied is one forwarded response: the worker's wire bytes without
// the trailing newline every worker response ends with (the front door
// writes it back), plus the headers the front door propagates.
type proxied struct {
	status int
	body   []byte
	member string // X-Dyncg-Member of the worker (its ID when absent)
	source string // X-Dyncg-Source of the worker
}

// Wire makes proxied responses cacheable by the front-door stage.
func (p *proxied) Wire() (int, []byte) { return p.status, p.body }

// forward sends one request to a member and reads the full response.
// A transport error marks the member down and is returned; HTTP-level
// errors (any status) are successful forwards.
func (f *FrontDoor) forward(ctx context.Context, m *member, method, uri string, body []byte) (*proxied, error) {
	ctx, cancel := context.WithTimeout(ctx, f.cfg.Deadline)
	defer cancel()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, m.URL+uri, rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := f.client.Do(req)
	if err != nil {
		if m.up.Swap(false) {
			f.log.LogAttrs(ctx, slog.LevelWarn, "member down",
				slog.String("member", m.ID), slog.String("error", err.Error()))
		}
		return nil, err
	}
	defer resp.Body.Close()
	rb, err := io.ReadAll(resp.Body)
	if err != nil {
		if m.up.Swap(false) {
			f.log.LogAttrs(ctx, slog.LevelWarn, "member down",
				slog.String("member", m.ID), slog.String("error", err.Error()))
		}
		return nil, err
	}
	p := &proxied{
		status: resp.StatusCode,
		body:   bytes.TrimSuffix(rb, []byte("\n")),
		member: resp.Header.Get("X-Dyncg-Member"),
		source: resp.Header.Get("X-Dyncg-Source"),
	}
	if p.member == "" {
		p.member = m.ID
	}
	m.proxied.Add(1)
	return p, nil
}

// forwardWalk forwards a stateless request along the ring's failover
// sequence for key: the owner first, then each remaining member in
// ring order, live members only, each tried at most once. Returns nil
// when every member is down or errors — the caller answers
// no_members.
func (f *FrontDoor) forwardWalk(ctx context.Context, key, method, uri string, body []byte) *proxied {
	first := true
	for _, id := range f.ring.Sequence(key) {
		m := f.members[id]
		if !m.up.Load() {
			first = false
			continue
		}
		p, err := f.forward(ctx, m, method, uri, body)
		if err == nil {
			return p
		}
		if !first {
			f.retries.Add(1)
		}
		first = false
	}
	f.exhausted.Add(1)
	return nil
}

// write sends a proxied response to the client and records it. rawJSON
// says the request body decoded, as for front.Recorder.Send.
func (f *FrontDoor) write(w http.ResponseWriter, r *http.Request, p *proxied, raw []byte, rawJSON bool, meta api.ReplayMeta) {
	w.Header().Set("X-Dyncg-Member", p.member)
	if p.source != "" {
		w.Header().Set("X-Dyncg-Source", p.source)
	}
	meta.Member = p.member
	f.rec.Send(w, r, p.status, p.body, raw, rawJSON, meta)
}

// fail sends a front-door-originated error envelope. member attributes
// the failure to a fleet member (member_down); empty for fleet-wide
// conditions.
func (f *FrontDoor) fail(w http.ResponseWriter, r *http.Request, status int, e *api.Error, raw []byte, rawJSON bool, meta api.ReplayMeta) {
	body, _ := json.Marshal(e)
	w.Header().Set("X-Dyncg-Member", "frontdoor")
	meta.Member = e.Member
	f.rec.Send(w, r, status, body, raw, rawJSON, meta)
}

// machineMeta extracts the served machine from a successful response
// body, so fleet replay records carry the same machine metadata the
// worker's own log would.
func machineMeta(status int, body []byte) api.ReplayMeta {
	if status != http.StatusOK {
		return api.ReplayMeta{}
	}
	var env struct {
		Machine api.MachineInfo `json:"machine"`
		Session struct {
			Machine api.MachineInfo `json:"machine"`
		} `json:"session"`
	}
	if err := json.Unmarshal(body, &env); err != nil {
		return api.ReplayMeta{}
	}
	mi := env.Machine
	if mi.PEs == 0 {
		mi = env.Session.Machine
	}
	return api.ReplayMeta{Topology: mi.Topology, PEs: mi.PEs, Workers: mi.Workers}
}

// classKey is the routing key of a one-shot request the front door
// cannot canonically hash: a deterministic digest of the machine size
// class it will occupy. Requests that differ only in coefficients or
// query fields share it, keeping a working set's machine classes warm
// on as few members as possible.
func classKey(req *api.Request) string {
	n := len(req.System)
	k := 0
	for _, pt := range req.System {
		for _, cf := range pt {
			if len(cf) > k {
				k = len(cf)
			}
		}
	}
	return fmt.Sprintf("%s|%d|%d|%d|%d", req.Options.Topology, n, k, req.Options.PEs, req.Options.Workers)
}

// handleAlgorithm proxies POST /v1/{algorithm}: decode enough to
// compute the routing key, then run the front-door stage (cache read,
// coalesce) around a forward along the ring.
func (f *FrontDoor) handleAlgorithm(w http.ResponseWriter, r *http.Request) {
	raw, rerr := f.readBody(w, r)
	if rerr != nil {
		return
	}

	// Resolve the request as the worker will, so the canonical hash (the
	// cache/coalesce key) is computed over the same values. The front
	// door computes nothing, so it passes procs 0: a worker count only
	// the worker can resolve leaves the request uncacheable, routed by
	// its size class. Requests the worker will reject still route
	// deterministically.
	key, cacheKey := "", ""
	var req api.Request
	decoded := api.DecodeRequest(raw, &req) == nil
	if decoded {
		res, _ := front.Resolve(r.PathValue("algorithm"), &req, 0)
		cacheKey, key = res.Key, res.Key
		if key == "" {
			key = classKey(&req)
		}
	}

	p, source, err := f.stage.Do(r.Context(), cacheKey, true,
		func(body []byte) *proxied {
			return &proxied{status: http.StatusOK, body: body, member: "frontdoor", source: front.SourceCache}
		},
		func() (*proxied, error) {
			if p := f.forwardWalk(r.Context(), key, r.Method, r.URL.RequestURI(), raw); p != nil {
				return p, nil
			}
			return nil, errNoMembers
		})
	switch {
	case errors.Is(err, errNoMembers):
		f.fail(w, r, http.StatusServiceUnavailable,
			api.NewError(api.CodeNoMembers, "fleet: no live member to serve the request"),
			raw, decoded, api.ReplayMeta{})
		return
	case err != nil:
		// This follower's context expired while the leader was still
		// forwarding.
		f.fail(w, r, http.StatusServiceUnavailable,
			api.NewError(api.CodeCoalesceTimeout,
				fmt.Sprintf("fleet: deadline expired waiting for coalesced computation: %v", err)),
			raw, decoded, api.ReplayMeta{})
		return
	}
	meta := machineMeta(p.status, p.body)
	if source != front.SourceCache {
		meta.FaultSeed = req.Options.FaultSeed
	}
	if source == front.SourceCoalesced {
		// p is the leader's response, shared by the whole flight:
		// relabel a copy.
		p = &proxied{status: p.status, body: p.body, member: p.member, source: source}
	}
	f.write(w, r, p, raw, decoded, meta)
}

// errNoMembers marks a coalesced leader's walk that found no live
// member — distinguished from a follower's own context expiry.
var errNoMembers = errors.New("fleet: no live member")

// readBody reads one inbound request body under the fleet's size cap,
// answering the worker's exact decode-failure envelope on error (the
// body never reaches a worker in that case).
func (f *FrontDoor) readBody(w http.ResponseWriter, r *http.Request) ([]byte, error) {
	raw, st, err := front.ReadBody(w, r, f.cfg.MaxBody)
	if st != 0 {
		f.fail(w, r, st, api.NewError(api.CodeBadRequest, err.Error()), raw, false, api.ReplayMeta{})
		return nil, err
	}
	return raw, nil
}

// handleSessionCreate places new sessions round-robin across live
// members; the chosen worker mints an ID that hashes home to it.
// Creation is stateless until it succeeds, so a dead member is simply
// skipped.
func (f *FrontDoor) handleSessionCreate(w http.ResponseWriter, r *http.Request) {
	raw, rerr := f.readBody(w, r)
	if rerr != nil {
		return
	}
	ids := f.ring.IDs()
	start := int(f.next.Add(1) - 1)
	for i := 0; i < len(ids); i++ {
		m := f.members[ids[(start+i)%len(ids)]]
		if !m.up.Load() {
			continue
		}
		p, ferr := f.forward(r.Context(), m, r.Method, r.URL.RequestURI(), raw)
		if ferr != nil {
			f.retries.Add(1)
			continue
		}
		meta := machineMeta(p.status, p.body)
		meta.Session = sessionIDOf(p.body)
		f.write(w, r, p, raw, false, meta)
		return
	}
	f.exhausted.Add(1)
	f.fail(w, r, http.StatusServiceUnavailable,
		api.NewError(api.CodeNoMembers, "fleet: no live member to serve the request"),
		raw, false, api.ReplayMeta{})
}

// sessionIDOf pulls the session ID out of a create response.
func sessionIDOf(body []byte) string {
	var env struct {
		Session struct {
			ID string `json:"id"`
		} `json:"session"`
	}
	if json.Unmarshal(body, &env) != nil {
		return ""
	}
	return env.Session.ID
}

// handleSessionByID routes update/query/delete to the member owning
// the session ID. The session's machine lives in exactly one process,
// so there is no failover: a downed home member is a typed 503
// member_down until it returns (its sessions are gone with it — the
// worker answers no_session after a restart).
func (f *FrontDoor) handleSessionByID(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	home := f.ring.Lookup(id)
	m := f.members[home]
	var raw []byte
	if r.Method != http.MethodGet {
		var rerr error
		raw, rerr = f.readBody(w, r)
		if rerr != nil {
			return
		}
	}
	if !m.up.Load() {
		f.orphaned.Add(1)
		e := api.NewError(api.CodeMemberDown,
			fmt.Sprintf("fleet: member %q owning session %q is down", home, id))
		e.Member = home
		f.fail(w, r, http.StatusServiceUnavailable, e, raw, false, api.ReplayMeta{Session: id})
		return
	}
	p, err := f.forward(r.Context(), m, r.Method, r.URL.RequestURI(), raw)
	if err != nil {
		f.orphaned.Add(1)
		e := api.NewError(api.CodeMemberDown,
			fmt.Sprintf("fleet: member %q owning session %q is down", home, id))
		e.Member = home
		f.fail(w, r, http.StatusServiceUnavailable, e, raw, false, api.ReplayMeta{Session: id})
		return
	}
	meta := machineMeta(p.status, p.body)
	meta.Session = id
	f.write(w, r, p, raw, false, meta)
}

// handleHealthz: the fleet is healthy while any member is.
func (f *FrontDoor) handleHealthz(w http.ResponseWriter, r *http.Request) {
	for _, id := range f.ring.IDs() {
		if f.members[id].up.Load() {
			io.WriteString(w, "ok\n")
			return
		}
	}
	http.Error(w, "no live members", http.StatusServiceUnavailable)
}

// handleCluster serves GET /v1/cluster: the ring roster with live
// per-member stats (fetched from each live member's own /v1/cluster)
// and the ?key= routing probe.
func (f *FrontDoor) handleCluster(w http.ResponseWriter, r *http.Request) {
	resp := api.ClusterResponse{V: api.Version, Mode: "fleet"}
	for _, id := range f.ring.IDs() {
		m := f.members[id]
		row := api.ClusterMember{ID: id, URL: m.URL}
		if m.up.Load() {
			if p, err := f.forward(r.Context(), m, http.MethodGet, "/v1/cluster", nil); err == nil && p.status == http.StatusOK {
				var sub api.ClusterResponse
				if json.Unmarshal(p.body, &sub) == nil && len(sub.Members) > 0 {
					row.Healthy = sub.Members[0].Healthy
					row.Inflight = sub.Members[0].Inflight
					row.QueueDepth = sub.Members[0].QueueDepth
					row.IdlePEs = sub.Members[0].IdlePEs
					row.Sessions = sub.Members[0].Sessions
				}
			}
		}
		resp.Members = append(resp.Members, row)
	}
	if key := r.URL.Query().Get("key"); key != "" {
		resp.Probe = &api.ClusterProbe{Key: key, Member: f.ring.Lookup(key)}
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	json.NewEncoder(w).Encode(resp)
}

// handleMetrics aggregates the fleet exposition: every live member's
// /metrics with a member="<id>" label injected into each series
// (duplicate TYPE headers dropped), then the front door's own routing
// and cache counters.
func (f *FrontDoor) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	var b strings.Builder
	seenType := map[string]bool{}
	ids := f.ring.IDs()
	for _, id := range ids {
		m := f.members[id]
		if !m.up.Load() {
			continue
		}
		p, err := f.forward(r.Context(), m, http.MethodGet, "/metrics", nil)
		if err != nil || p.status != http.StatusOK {
			continue
		}
		for _, line := range strings.Split(string(p.body), "\n") {
			if line == "" {
				continue
			}
			if strings.HasPrefix(line, "#") {
				if !seenType[line] {
					seenType[line] = true
					b.WriteString(line)
					b.WriteByte('\n')
				}
				continue
			}
			b.WriteString(labelMember(line, id))
			b.WriteByte('\n')
		}
	}
	io.WriteString(w, b.String())

	up := make([]string, 0, len(ids))
	for _, id := range ids {
		up = append(up, id)
	}
	sort.Strings(up)
	fmt.Fprintf(w, "# TYPE dyncg_fleet_member_up gauge\n")
	for _, id := range up {
		v := 0
		if f.members[id].up.Load() {
			v = 1
		}
		fmt.Fprintf(w, "dyncg_fleet_member_up{member=%q} %d\n", id, v)
	}
	fmt.Fprintf(w, "# TYPE dyncg_fleet_proxied_total counter\n")
	for _, id := range up {
		fmt.Fprintf(w, "dyncg_fleet_proxied_total{member=%q} %d\n", id, f.members[id].proxied.Load())
	}
	fmt.Fprintf(w, "# TYPE dyncg_fleet_retries_total counter\n")
	fmt.Fprintf(w, "dyncg_fleet_retries_total %d\n", f.retries.Load())
	fmt.Fprintf(w, "# TYPE dyncg_fleet_member_down_total counter\n")
	fmt.Fprintf(w, "dyncg_fleet_member_down_total %d\n", f.orphaned.Load())
	fmt.Fprintf(w, "# TYPE dyncg_fleet_no_members_total counter\n")
	fmt.Fprintf(w, "dyncg_fleet_no_members_total %d\n", f.exhausted.Load())
	cs := f.rc.Stats()
	fmt.Fprintf(w, "# TYPE dyncg_fleet_rcache_hits_total counter\n")
	fmt.Fprintf(w, "dyncg_fleet_rcache_hits_total %d\n", cs.Hits)
	fmt.Fprintf(w, "# TYPE dyncg_fleet_rcache_misses_total counter\n")
	fmt.Fprintf(w, "dyncg_fleet_rcache_misses_total %d\n", cs.Misses)
	fmt.Fprintf(w, "# TYPE dyncg_fleet_rcache_bytes gauge\n")
	fmt.Fprintf(w, "dyncg_fleet_rcache_bytes %d\n", cs.Bytes)
	fmt.Fprintf(w, "# TYPE dyncg_fleet_coalesce_merged_total counter\n")
	fmt.Fprintf(w, "dyncg_fleet_coalesce_merged_total %d\n", f.stage.Merged())
}

// labelMember injects member="<id>" as the first label of one
// exposition line.
func labelMember(line, id string) string {
	sp := strings.IndexByte(line, ' ')
	if sp < 0 {
		return line
	}
	name, rest := line[:sp], line[sp:]
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return fmt.Sprintf("%s{member=%q,%s%s", name[:i], id, name[i+1:], rest)
	}
	return fmt.Sprintf("%s{member=%q}%s", name, id, rest)
}
