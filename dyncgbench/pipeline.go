package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"reflect"
	"runtime"
	"time"

	"dyncg/internal/api"
	"dyncg/internal/canon"
	"dyncg/internal/coalesce"
	"dyncg/internal/machine"
	"dyncg/internal/motion"
	"dyncg/internal/rcache"
	"dyncg/internal/replaylog"
	"dyncg/internal/server"
	"dyncg/internal/session"
	"dyncg/internal/topo"
)

// span is one timed call into a layer. Spans of one request share Req;
// Parent indexes the enclosing span (-1 for a request's root). Times
// are nanoseconds since the traced run began.
type span struct {
	Name   string `json:"name"`
	Tag    string `json:"tag,omitempty"`
	Req    int    `json:"req"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory; they are written out when the run ends.
type tracer struct {
	t0    time.Time
	req   int
	stack []int
	spans []span
}

func (t *tracer) begin(name, tag string) int {
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	t.spans = append(t.spans, span{Name: name, Tag: tag, Req: t.req, Parent: parent, Start: int64(time.Since(t.t0))})
	i := len(t.spans) - 1
	t.stack = append(t.stack, i)
	return i
}

func (t *tracer) end(i int) {
	t.spans[i].End = int64(time.Since(t.t0))
	t.stack = t.stack[:len(t.stack)-1]
}

// pipeline serves requests by calling each layer's public entry point
// in the order the server's handlers do, recording one span per call
// (timing pass) or the allocations of each call (allocation pass, tr
// nil). It holds its own cache, coalescer, pool and replay log, so fed
// the same request sequence as a server it reaches the same states and
// must produce the same bytes.
type pipeline struct {
	tr       *tracer
	allocs   map[string][]float64
	rc       *rcache.Cache
	cg       *coalesce.Group[*pipeOutcome]
	pool     *server.Pool
	rlog     *replaylog.Log // nil when the workload's daemon logs nothing
	sessions map[int]*pipeSession

	coreStats []machine.Stats // per core call
	applied   []session.ApplyStats
}

type pipeOutcome struct {
	status int
	body   []byte
	meta   api.ReplayMeta
}

type pipeSession struct {
	eng *session.Engine
	m   *machine.M
	key server.Key
	mi  api.MachineInfo
}

// newPipeline returns a pipeline in one of three modes: with a tracer
// it records spans; with countAllocs it records allocations per call;
// with neither it only runs the calls (the untraced reference for the
// tracing overhead).
func newPipeline(tr *tracer, countAllocs bool, rlog *replaylog.Log) *pipeline {
	p := &pipeline{
		tr:       tr,
		rc:       rcache.New(server.DefaultCacheBytes),
		cg:       coalesce.New[*pipeOutcome](),
		pool:     server.NewPoolPEs(32, 1<<22),
		rlog:     rlog,
		sessions: map[int]*pipeSession{},
	}
	if countAllocs {
		p.allocs = map[string][]float64{}
	}
	return p
}

// layer runs f as one call into the named layer.
func (p *pipeline) layer(name, tag string, f func()) {
	if p.tr == nil && p.allocs == nil {
		f()
		return
	}
	if p.tr == nil {
		var a, b runtime.MemStats
		runtime.ReadMemStats(&a)
		f()
		runtime.ReadMemStats(&b)
		p.allocs[name] = append(p.allocs[name], float64(b.Mallocs-a.Mallocs))
		return
	}
	i := p.tr.begin(name, tag)
	f()
	p.tr.end(i)
}

// request opens a request's root span and returns its closer.
func (p *pipeline) request(id int) func() {
	if p.tr == nil {
		return func() {}
	}
	p.tr.req = id
	i := p.tr.begin("request", "")
	return func() { p.tr.end(i) }
}

func (p *pipeline) encode(v any) []byte {
	var b []byte
	p.layer("api.encode", "", func() {
		var err error
		if b, err = json.Marshal(v); err != nil {
			b = []byte(`{"v":1,"code":"internal","message":"encode failed"}`)
		}
	})
	return b
}

func (p *pipeline) record(method, path string, status int, body, raw []byte, meta api.ReplayMeta) {
	if p.rlog == nil {
		return
	}
	rec := api.ReplayRecord{Method: method, Path: path, Status: status, Meta: meta, Response: body}
	switch {
	case len(raw) == 0:
	case json.Valid(raw):
		rec.Request = raw
	default:
		rec.RequestBin = raw
	}
	p.layer("replaylog.append", "", func() { p.rlog.Append(rec) })
}

func (p *pipeline) fail(code api.ErrorCode, status int, err error) *pipeOutcome {
	return &pipeOutcome{status: status, body: p.encode(api.NewError(code, err.Error()))}
}

// oneShot serves POST /v1/<algo> the way server.handleAlgorithm does for
// a fault-free request with the cache and coalescer on.
func (p *pipeline) oneShot(id int, algo string, raw []byte) (int, []byte) {
	defer p.request(id)()
	o := p.oneShotOutcome(algo, raw)
	p.record(http.MethodPost, "/v1/"+algo, o.status, o.body, raw, o.meta)
	return o.status, o.body
}

func (p *pipeline) oneShotOutcome(algo string, raw []byte) *pipeOutcome {
	e, ok := endpointByName[algo]
	if !ok {
		return p.fail(api.CodeUnknownAlgorithm, http.StatusNotFound, fmt.Errorf("server: unknown algorithm %q", algo))
	}
	var req api.Request
	var err error
	p.layer("api.decode", "", func() { err = json.Unmarshal(raw, &req) })
	if err != nil {
		return p.fail(api.CodeBadRequest, http.StatusBadRequest, fmt.Errorf("server: decoding request: %w", err))
	}
	tp, err := topo.Parse(orDefault(req.Options.Topology, string(topo.Hypercube)))
	if err != nil || req.V != api.Version || req.Options.Faults != "" {
		return p.fail(api.CodeInternal, http.StatusInternalServerError, fmt.Errorf("benchmark pipeline: unsupported request"))
	}
	var sys *motion.System
	p.layer("motion.system", "", func() { sys, err = systemFrom(req.System) })
	if err != nil {
		return p.fail(api.CodeBadSystem, http.StatusBadRequest, err)
	}
	workers := max(req.Options.Workers, 1)
	infoWorkers := 0
	if workers > 1 {
		infoWorkers = workers
	}
	need := max(e.pes(string(tp), sys), req.Options.PEs)
	classSize, err := topo.Size(tp, need)
	if err != nil {
		return p.fail(api.CodeTooFewPEs, http.StatusUnprocessableEntity, err)
	}
	mi := api.MachineInfo{Topology: string(tp), PEs: classSize, Workers: infoWorkers}
	meta := api.ReplayMeta{Topology: mi.Topology, PEs: mi.PEs, Workers: mi.Workers}

	var key string
	p.layer("canon.key", "", func() { key, _ = canon.Key(algo, string(tp), workers, &req) })
	var body []byte
	var hit bool
	p.layer("rcache.get", "", func() { body, hit = p.rc.Get(key) })
	if hit {
		return &pipeOutcome{status: http.StatusOK, body: body, meta: meta}
	}
	var out *pipeOutcome
	p.layer("coalesce.do", "", func() {
		out, _, _ = p.cg.Do(context.Background(), key, func() (*pipeOutcome, error) {
			o := p.compute(e, &req, tp, sys, workers, need, mi)
			if o.status == http.StatusOK {
				p.layer("rcache.put", "", func() { p.rc.Put(key, o.body) })
			}
			return o, nil
		})
	})
	return out
}

// compute is the pool checkout, the facade algorithm, and the encode.
func (p *pipeline) compute(e *endpoint, req *api.Request, tp topo.Topology, sys *motion.System, workers, need int, mi api.MachineInfo) *pipeOutcome {
	pk := server.Key{Topo: string(tp), PEs: mi.PEs, Workers: workers}
	var m *machine.M
	p.layer("pool.get", "", func() { m = p.pool.Get(pk) })
	hit := m != nil
	if m == nil {
		var err error
		p.layer("topo.new_machine", "", func() { m, err = newMachine(tp, need, workers) })
		if err != nil {
			return p.fail(api.CodeTooFewPEs, http.StatusUnprocessableEntity, err)
		}
	}
	var res any
	var err error
	p.layer("core.run", e.name, func() { res, err = e.run(m, sys, req) })
	stats := m.Stats()
	p.layer("pool.put", "", func() { p.pool.Put(pk, m) })
	if err != nil {
		return p.fail(api.CodeBadSystem, http.StatusBadRequest, err)
	}
	p.coreStats = append(p.coreStats, stats)
	body := p.encode(&api.Response{
		V: api.Version, Algorithm: e.name, Machine: mi,
		Stats: api.FromStats(stats), Pool: api.PoolInfo{Hit: hit}, Result: res,
	})
	return &pipeOutcome{status: http.StatusOK, body: body, meta: api.ReplayMeta{Topology: mi.Topology, PEs: mi.PEs, Workers: mi.Workers}}
}

func newMachine(tp topo.Topology, need, workers int) (*machine.M, error) {
	if workers > 1 {
		return topo.NewMachine(tp, need, topo.WithParallel(workers))
	}
	return topo.NewMachine(tp, need)
}

func orDefault(s, def string) string {
	if s == "" {
		return def
	}
	return s
}

// sessionOp serves one session op the way the server's session
// handlers do; slot names the session (the server's IDs are random, so
// answers are compared on result and Stats, not IDs).
func (p *pipeline) sessionOp(id int, o *op) (int, []byte) {
	defer p.request(id)()
	ps := p.sessions[o.slot]
	sid := fmt.Sprintf("s-bench-%d", o.slot)
	var (
		status = http.StatusOK
		body   []byte
		meta   = api.ReplayMeta{Session: sid}
		method = http.MethodGet
		path   = "/v1/sessions/" + sid + "/query"
	)
	if ps != nil {
		meta = api.ReplayMeta{Topology: ps.mi.Topology, PEs: ps.mi.PEs, Workers: ps.mi.Workers, Session: sid}
	}
	info := func(ps *pipeSession) api.SessionInfo {
		return api.SessionInfo{
			ID: sid, Algorithm: string(ps.eng.Algorithm()), Machine: ps.mi,
			Capacity: ps.eng.Capacity(), MaxDegree: ps.eng.MaxDegree(), Origin: ps.eng.Origin(),
			Points: ps.eng.Points(), Updates: ps.eng.Updates(),
		}
	}
	result := func(ps *pipeSession) any {
		var r any
		p.layer("session.query", "", func() { r = sessionResult(ps.eng.Algorithm(), ps.eng.Result()) })
		return r
	}
	failed := func(err error) {
		status = http.StatusInternalServerError
		body = p.encode(api.NewError(api.CodeInternal, err.Error()))
	}
	switch o.kind {
	case kCreate:
		method, path = http.MethodPost, "/v1/sessions"
		var err error
		ps, err = p.createSession(o)
		if err != nil {
			failed(err)
			break
		}
		p.sessions[o.slot] = ps
		meta = api.ReplayMeta{Topology: ps.mi.Topology, PEs: ps.mi.PEs, Workers: ps.mi.Workers, Session: sid}
		body = p.encode(&api.SessionCreateResponse{
			V: api.Version, Session: info(ps), Stats: api.FromStats(ps.m.Stats()), Result: result(ps),
		})
	case kUpdate:
		method, path = http.MethodPost, "/v1/sessions/"+sid+"/update"
		var req api.SessionUpdateRequest
		var err error
		p.layer("api.decode", "", func() { err = json.Unmarshal(o.body, &req) })
		if err != nil {
			failed(err)
			break
		}
		var deltas []session.Delta
		p.layer("motion.system", "", func() { deltas, err = deltasFrom(req.Deltas) })
		if err != nil {
			failed(err)
			break
		}
		before := ps.m.Stats()
		var inserted []int
		var ast session.ApplyStats
		p.layer("session.apply", "", func() { inserted, ast, err = ps.eng.Apply(deltas) })
		if err != nil {
			failed(err)
			break
		}
		p.applied = append(p.applied, ast)
		body = p.encode(&api.SessionUpdateResponse{
			V: api.Version, Session: info(ps), Inserted: inserted,
			DirtyLeaves: ast.DirtyLeaves, MergedNodes: ast.MergedNodes,
			Stats: api.FromStats(ps.m.Stats().Sub(before)), Result: result(ps),
		})
	case kQuery, kVerify:
		resp := &api.SessionQueryResponse{V: api.Version, Session: info(ps), Result: result(ps)}
		if o.kind == kVerify {
			path += "?verify=1"
			var rebuilt session.Result
			var err error
			p.layer("session.rebuild", "", func() { rebuilt, err = ps.eng.Rebuild() })
			if err != nil {
				failed(err)
				break
			}
			ok := reflect.DeepEqual(ps.eng.Result(), rebuilt)
			resp.Verified = &ok
		}
		body = p.encode(resp)
	case kDelete:
		method, path = http.MethodDelete, "/v1/sessions/"+sid
		meta = api.ReplayMeta{Session: sid}
		updates := ps.eng.Updates()
		p.layer("pool.put", "", func() {
			ps.m.WarmReset()
			p.pool.Put(ps.key, ps.m)
		})
		delete(p.sessions, o.slot)
		body = p.encode(&api.SessionDeleteResponse{V: api.Version, ID: sid, Updates: updates})
	}
	p.record(method, path, status, body, o.body, meta)
	return status, body
}

// createSession mirrors handleSessionCreate: decode, size the machine
// for the session's capacity, check it out of the pool (or build it),
// and run the from-scratch engine build.
func (p *pipeline) createSession(o *op) (*pipeSession, error) {
	var req api.SessionCreateRequest
	var err error
	p.layer("api.decode", "", func() { err = json.Unmarshal(o.body, &req) })
	if err != nil {
		return nil, err
	}
	algo, err := session.ParseAlgo(req.Algorithm)
	if err != nil {
		return nil, err
	}
	tp, err := topo.Parse(orDefault(req.Options.Topology, string(topo.Hypercube)))
	if err != nil {
		return nil, err
	}
	var sys *motion.System
	p.layer("motion.system", "", func() { sys, err = systemFrom(req.System) })
	if err != nil {
		return nil, err
	}
	capacity := req.Options.Capacity
	if capacity == 0 {
		capacity = max(2*sys.N(), 8)
	}
	maxK := req.Options.MaxDegree
	if maxK == 0 {
		maxK = max(sys.K, 1)
	}
	need := max(session.PEs(string(tp), algo, capacity, maxK), req.Options.PEs)
	classSize, err := topo.Size(tp, need)
	if err != nil {
		return nil, err
	}
	workers := max(req.Options.Workers, 1)
	key := server.Key{Topo: string(tp), PEs: classSize, Workers: workers}
	var m *machine.M
	p.layer("pool.get", "", func() { m = p.pool.Get(key) })
	if m == nil {
		p.layer("topo.new_machine", "", func() { m, err = newMachine(tp, need, workers) })
		if err != nil {
			return nil, err
		}
	}
	cfg := session.Config{Algorithm: algo, Origin: req.Origin, Dims: req.Dims,
		Capacity: req.Options.Capacity, MaxDegree: req.Options.MaxDegree}
	var eng *session.Engine
	p.layer("session.create", "", func() { eng, err = session.New(m, cfg, sys.Points) })
	if err != nil {
		return nil, err
	}
	infoWorkers := 0
	if workers > 1 {
		infoWorkers = workers
	}
	return &pipeSession{eng: eng, m: m, key: key,
		mi: api.MachineInfo{Topology: string(tp), PEs: classSize, Workers: infoWorkers}}, nil
}

// sessionResult converts a session's maintained answer to the one-shot
// wire payload, as the server does.
func sessionResult(algo session.Algo, res session.Result) any {
	switch algo {
	case session.ClosestPointSeq, session.FarthestPointSeq:
		return neighborEvents(res.Neighbors)
	case session.ClosestPairSeq, session.FarthestPairSeq:
		return pairEvents(res.Pairs)
	case session.CubeEdge:
		return piecewise(res.Edge)
	case session.SmallestEver:
		return api.MinCube{D: res.MinD, T: res.MinT}
	default:
		return intervals(res.Intervals)
	}
}

func deltasFrom(ws []api.SessionDelta) ([]session.Delta, error) {
	out := make([]session.Delta, len(ws))
	for i, wd := range ws {
		d := session.Delta{Op: session.Op(wd.Op), ID: wd.ID}
		switch d.Op {
		case session.OpInsert, session.OpRetarget:
			if len(wd.Point) == 0 {
				return nil, fmt.Errorf("delta %d (%s) has no point: %w", i, wd.Op, motion.ErrBadSystem)
			}
			d.Point = pointFrom(wd.Point)
		case session.OpDelete:
		default:
			return nil, fmt.Errorf("delta %d has unknown op %q: %w", i, wd.Op, motion.ErrBadSystem)
		}
		out[i] = d
	}
	return out, nil
}
