package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"dyncg/internal/api"
	"dyncg/internal/canon"
	"dyncg/internal/fleet"
	"dyncg/internal/motion"
	"dyncg/internal/replaylog"
	"dyncg/internal/server"
	"dyncg/internal/shard"
	"dyncg/internal/topo"
)

// traceItem is one request of the traced run's sample.
type traceItem struct {
	o    *op
	lane int
}

// traceSample picks the requests the traced run serves: the head of the
// workload's own closed-loop stream in arrival order, one request per
// endpoint and topology so every core.run_us.<endpoint> has data, and a
// short stream on the session layout of each lane, so the session layer
// is timed on every workload.
func traceSample(w *workload, seed int64, in *inputs) []traceItem {
	var items []traceItem
	head := map[string]int{"solve-mix": 200, "hot-read": 1200}[w.name]
	for i := 0; i < head; i++ {
		for l := 0; l < closedLanes; l++ {
			if i < len(in.closed[l]) {
				items = append(items, traceItem{o: in.closed[l][i], lane: l})
			}
		}
	}
	r := rand.New(rand.NewSource(seed ^ 0x5eed))
	for i := range endpoints {
		for _, tp := range topologies {
			items = append(items, traceItem{o: oneShot(kSolve, endpoints[i].name, randomRequest(r, &endpoints[i], 0, tp, 0))})
		}
	}
	const sessOps = 15
	for l := 0; l < lanes; l++ {
		g := newSessionGen(seed, l)
		for _, o := range g.creates() {
			items = append(items, traceItem{o: o, lane: l})
		}
		for i := 0; i < sessOps; i++ {
			items = append(items, traceItem{o: g.next(), lane: l})
		}
		if g.pending != nil {
			items = append(items, traceItem{o: g.pending, lane: l})
		}
		// A closing audit of every session, so Engine.Rebuild is timed
		// on every workload.
		for slot, m := range g.models {
			items = append(items, traceItem{o: &op{kind: kVerify, slot: slot, points: m.live, hot: -1}, lane: l})
		}
	}
	return items
}

// isOneShot reports whether an op goes through handleAlgorithm.
func (o *op) isOneShot() bool { return o.kind == kSolve || o.kind == kHot || o.kind == kBad }

// tracedResult is the traced run's output: per-layer metrics plus the
// integrity mismatches between the layer pipeline and the server.
type tracedResult struct {
	metrics    map[string]float64
	mismatches []string
	spans      []span
}

// hopProbe is what the untraced run measured against the live daemon
// for http.hop_us: per probe body, the median loopback latency of a
// cache-hit request.
type hopProbe struct {
	algo  string
	body  []byte
	latUs float64
}

// tracedRun serves the sample four times in process, each time from
// fresh state: through server.ServeHTTP (handler time), through the
// layer pipeline with spans (self times), through the pipeline without
// spans (the base of the tracing overhead), and through the pipeline
// counting allocations. It then runs the off-path probes and derives
// the per-layer metrics.
func tracedRun(w *workload, seed int64, in *inputs, tmp string, hops []hopProbe) (*tracedResult, error) {
	items := traceSample(w, seed, in)
	res := &tracedResult{metrics: map[string]float64{}}
	mismatch := func(msg string) {
		switch {
		case len(res.mismatches) < 5:
			res.mismatches = append(res.mismatches, msg)
		case len(res.mismatches) == 5:
			res.mismatches = append(res.mismatches, "…")
		}
	}
	openLog := func(name string) (*replaylog.Log, error) {
		if !w.logDir {
			return nil, nil
		}
		return replaylog.Open(filepath.Join(tmp, name))
	}

	// 1. The server, untraced: handler time per request.
	alog, err := openLog("trace-server")
	if err != nil {
		return nil, err
	}
	if alog != nil {
		defer alog.Close() // the HTTP-hop probe below still serves through srv
	}
	srv := server.New(server.Config{CacheBytes: server.DefaultCacheBytes, Coalesce: true, ReplayLog: alog})
	handlerUs := make([]float64, len(items))
	served := make([][]byte, len(items))
	sids := map[[2]int]string{}
	runtime.GC()
	for i, it := range items {
		method, path := http.MethodPost, "/v1/"+it.o.algo
		body := it.o.body
		sk := [2]int{it.lane, it.o.slot}
		switch it.o.kind {
		case kCreate:
			path = "/v1/sessions"
		case kUpdate:
			path = "/v1/sessions/" + sids[sk] + "/update"
		case kQuery:
			method, path, body = http.MethodGet, "/v1/sessions/"+sids[sk]+"/query", nil
		case kVerify:
			method, path, body = http.MethodGet, "/v1/sessions/"+sids[sk]+"/query?verify=1", nil
		case kDelete:
			method, path, body = http.MethodDelete, "/v1/sessions/"+sids[sk], nil
		}
		rq := httptest.NewRequest(method, path, bytes.NewReader(body))
		rw := httptest.NewRecorder()
		t0 := time.Now()
		srv.ServeHTTP(rw, rq)
		handlerUs[i] = us(time.Since(t0))
		served[i] = bytes.TrimSuffix(rw.Body.Bytes(), []byte("\n"))
		// Session answers must hold the predicted points, and every
		// closing audit must report verified.
		if !it.o.isOneShot() {
			id, err := checkSession(it.o, rw.Code, served[i])
			if err != nil {
				mismatch(err.Error())
			}
			if it.o.kind == kCreate {
				sids[sk] = id
			}
		}
	}

	// 2. The layer pipeline with spans.
	tlog, err := openLog("trace-pipeline")
	if err != nil {
		return nil, err
	}
	tr := &tracer{t0: time.Now()}
	pt := newPipeline(tr, false, tlog)
	runtime.GC()
	for i, it := range items {
		_, body := serveItem(pt, i, it)
		if msg := compareAnswers(it.o, body, served[i]); msg != "" {
			mismatch(msg)
		}
	}
	var logStats replaylog.Stats
	if tlog != nil {
		logStats = tlog.Stats()
		tlog.Close()
	}

	// 3. The layer pipeline without spans: the tracing overhead's base.
	plainlog, err := openLog("trace-plain")
	if err != nil {
		return nil, err
	}
	pn := newPipeline(nil, false, plainlog)
	plainUs := make([]float64, len(items))
	runtime.GC()
	for i, it := range items {
		t0 := time.Now()
		serveItem(pn, i, it)
		plainUs[i] = us(time.Since(t0))
	}
	if plainlog != nil {
		plainlog.Close()
	}

	// 4. The layer pipeline counting allocations.
	alloclog, err := openLog("trace-allocs")
	if err != nil {
		return nil, err
	}
	pa := newPipeline(nil, true, alloclog)
	runtime.GC()
	for i, it := range items {
		serveItem(pa, i, it)
	}
	if alloclog != nil {
		alloclog.Close()
	}

	// 5. Off-path probes, so every layer reports on every workload.
	probe := func(name string, f func()) {
		i := tr.begin("probe", "")
		pt.layer(name, "", f)
		tr.end(i)
	}
	pp := newPipeline(nil, true, nil) // allocation counts of the probes
	nProbe := 0
	for _, it := range items {
		if !it.o.isOneShot() || it.o.req == nil || nProbe >= 40 {
			continue
		}
		nProbe++
		e := endpointByName[it.o.algo]
		sys, err := systemFrom(it.o.req.System)
		if err != nil {
			return nil, err
		}
		tp := topo.Topology(orDefault(it.o.req.Options.Topology, "hypercube"))
		need := e.pes(string(tp), sys)
		probe("topo.new_machine", func() { newMachine(tp, need, 1) })
		pp.layer("topo.new_machine", "", func() { newMachine(tp, need, 1) })
	}
	if !w.logDir {
		plog, err := replaylog.Open(filepath.Join(tmp, "trace-probe-log"))
		if err != nil {
			return nil, err
		}
		for i, it := range items {
			if i >= 200 {
				break
			}
			rec := api.ReplayRecord{Method: http.MethodPost, Path: "/v1/" + it.o.algo, Status: 200, Response: served[i]}
			if json.Valid(it.o.body) && len(it.o.body) > 0 {
				rec.Request = it.o.body
			}
			probe("replaylog.append", func() { plog.Append(rec) })
			pp.layer("replaylog.append", "", func() { plog.Append(rec) })
		}
		logStats = plog.Stats()
		plog.Close()
	}

	res.spans = tr.spans
	m := res.metrics
	layerFromSpans(m, tr.spans, handlerUs, items)
	m["server.trace_overhead_us"] = m["server.handler_us.traced"] - median(plainUs)
	for name, xs := range pa.allocs {
		m[name+"_allocs"] = median(xs)
	}
	for name, xs := range pp.allocs {
		if _, ok := pa.allocs[name]; !ok || len(pa.allocs[name]) == 0 {
			m[name+"_allocs"] = median(xs)
		}
	}
	var rounds, msgs, simT []float64
	for _, st := range pt.coreStats {
		rounds = append(rounds, float64(st.Rounds))
		msgs = append(msgs, float64(st.Messages))
		simT = append(simT, float64(st.Time()))
	}
	m["machine.rounds_per_op"] = mean(rounds)
	m["machine.msgs_per_op"] = mean(msgs)
	m["machine.sim_time_per_op"] = mean(simT)
	var dirty, merged []float64
	for _, a := range pt.applied {
		dirty = append(dirty, float64(a.DirtyLeaves))
		merged = append(merged, float64(a.MergedNodes))
	}
	m["session.dirty_leaves_per_batch"] = mean(dirty)
	m["session.merged_nodes_per_batch"] = mean(merged)
	if logStats.Records > 0 {
		m["replaylog.bytes_per_record"] = float64(logStats.Bytes) / float64(logStats.Records)
	}
	var respBytes []float64
	for i, it := range items {
		if it.o.isOneShot() {
			respBytes = append(respBytes, float64(len(served[i])))
		}
	}
	m["api.resp_bytes"] = median(respBytes)

	// 6. The HTTP hop: loopback latency of a cache hit at the daemon
	// minus the in-process handler time of the same cache hit.
	var hop []float64
	for _, h := range hops {
		var inproc []float64
		for k := 0; k < 5; k++ {
			rq := httptest.NewRequest(http.MethodPost, "/v1/"+h.algo, bytes.NewReader(h.body))
			rw := httptest.NewRecorder()
			t0 := time.Now()
			srv.ServeHTTP(rw, rq)
			inproc = append(inproc, us(time.Since(t0)))
		}
		hop = append(hop, h.latUs-median(inproc))
	}
	m["http.hop_us"] = median(hop)

	if err := fleetProbe(m, items); err != nil {
		return nil, err
	}
	refProbe(m)
	return res, nil
}

func serveItem(p *pipeline, i int, it traceItem) (int, []byte) {
	if it.o.isOneShot() {
		return p.oneShot(i, it.o.algo, it.o.body)
	}
	o := *it.o
	o.slot = it.lane*16 + it.o.slot
	return p.sessionOp(i, &o)
}

// compareAnswers is the traced run's integrity check: one-shot answers
// must be byte-identical to the server's; session answers (whose IDs
// differ by construction) must agree on result, Stats, the incremental
// work and the audit.
func compareAnswers(o *op, mine, theirs []byte) string {
	if o.isOneShot() {
		if !bytes.Equal(mine, theirs) {
			return fmt.Sprintf("%s: pipeline %.160s\n server %.160s", o.algo, mine, theirs)
		}
		return ""
	}
	type cmp struct {
		Result      json.RawMessage `json:"result"`
		Stats       json.RawMessage `json:"stats"`
		DirtyLeaves *int            `json:"dirty_leaves"`
		MergedNodes *int            `json:"merged_nodes"`
		Verified    *bool           `json:"verified"`
		Inserted    []int           `json:"inserted"`
		Updates     *uint64         `json:"updates"`
	}
	var a, b cmp
	if json.Unmarshal(mine, &a) != nil || json.Unmarshal(theirs, &b) != nil {
		return fmt.Sprintf("session op %d: undecodable answer: %.120s / %.120s", o.kind, mine, theirs)
	}
	am, _ := json.Marshal(a)
	bm, _ := json.Marshal(b)
	if !bytes.Equal(am, bm) {
		return fmt.Sprintf("session op %d: pipeline %.160s\n server %.160s", o.kind, am, bm)
	}
	return ""
}

// layerFromSpans derives the span-based metrics: median self time per
// call for each layer, and the per-request split of server handler time
// into attributed layer time and the rest.
func layerFromSpans(m map[string]float64, spans []span, handlerUs []float64, items []traceItem) {
	child := make([]int64, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	self := map[string][]float64{}
	perEndpoint := map[string][]float64{}
	attributed := map[int]float64{}
	rootUs := map[int]float64{}
	coreSum, handlerSum := 0.0, 0.0
	for i, s := range spans {
		d := float64(s.End-s.Start-child[i]) / 1e3
		switch s.Name {
		case "request":
			rootUs[s.Req] = float64(s.End-s.Start) / 1e3
			continue
		case "probe":
			continue
		}
		self[s.Name] = append(self[s.Name], d)
		if s.Name == "core.run" {
			perEndpoint[s.Tag] = append(perEndpoint[s.Tag], d)
			coreSum += d
		}
		if s.Parent >= 0 && spans[s.Parent].Name == "request" {
			attributed[s.Req] += float64(s.End-s.Start) / 1e3
		}
	}
	for name, xs := range self {
		m[name+"_us"] = median(xs)
	}
	for name, xs := range perEndpoint {
		m["core.run_us."+name] = median(xs)
	}
	var unattributed, traced []float64
	for i := range items {
		unattributed = append(unattributed, handlerUs[i]-attributed[i])
		traced = append(traced, rootUs[i])
		handlerSum += handlerUs[i]
	}
	m["server.handler_us"] = median(handlerUs)
	m["server.unattributed_us"] = median(unattributed)
	m["server.handler_us.traced"] = median(traced)
	if handlerSum > 0 {
		m["core.handler_share"] = coreSum / handlerSum
	}
}

// fleetProbe measures the fleet layer in process: a front door over two
// in-process workers on loopback. fleet.hop_us is what the front door
// adds to a request its owning worker answers from cache: front-door
// time minus the worker's own in-process handler time for the same
// body. shard.lookup_us is one ring lookup.
func fleetProbe(m map[string]float64, items []traceItem) error {
	ids := []string{"m0", "m1"}
	workers := map[string]*server.Server{}
	var members []fleet.Member
	for _, id := range ids {
		s := server.New(server.Config{MemberID: id, FleetIDs: ids, CacheBytes: server.DefaultCacheBytes, Coalesce: true})
		ts := httptest.NewServer(s)
		defer ts.Close()
		workers[id] = s
		members = append(members, fleet.Member{ID: id, URL: ts.URL})
	}
	cli := newClient(2)
	defer cli.close()
	fd, err := fleet.New(fleet.Config{Members: members, CacheBytes: server.DefaultCacheBytes, Coalesce: true,
		ProbeInterval: -1, Client: cli.hc})
	if err != nil {
		return err
	}
	ring := shard.NewNamed(ids, 0)
	var keys []string
	var hopUs []float64
	urls := map[string]string{}
	for _, mb := range members {
		urls[mb.ID] = mb.URL
	}
	n := 0
	for _, it := range items {
		if it.o.kind != kSolve || n >= 30 {
			continue
		}
		req := it.o.req
		key, ok := canon.Key(it.o.algo, orDefault(req.Options.Topology, "hypercube"), max(req.Options.Workers, 1), req)
		if !ok {
			continue
		}
		n++
		keys = append(keys, key)
		owner := ring.Lookup(key)
		if st, _, err := cli.do(http.MethodPost, urls[owner]+"/v1/"+it.o.algo, it.o.body); err != nil || st != http.StatusOK {
			return fmt.Errorf("fleet probe: warming %s on %s: status %d err %v", it.o.algo, owner, st, err)
		}
		rq := httptest.NewRequest(http.MethodPost, "/v1/"+it.o.algo, bytes.NewReader(it.o.body))
		rw := httptest.NewRecorder()
		t0 := time.Now()
		workers[owner].ServeHTTP(rw, rq)
		tw := us(time.Since(t0))
		rq = httptest.NewRequest(http.MethodPost, "/v1/"+it.o.algo, bytes.NewReader(it.o.body))
		rw = httptest.NewRecorder()
		t0 = time.Now()
		fd.ServeHTTP(rw, rq)
		tf := us(time.Since(t0))
		if rw.Code != http.StatusOK {
			return fmt.Errorf("fleet probe: front door answered %d", rw.Code)
		}
		hopUs = append(hopUs, tf-tw)
	}
	m["fleet.hop_us"] = median(hopUs)
	var per []float64
	for b := 0; b < 21 && len(keys) > 0; b++ {
		t0 := time.Now()
		for i := 0; i < 1000; i++ {
			ring.Lookup(keys[i%len(keys)])
		}
		per = append(per, us(time.Since(t0))/1000)
	}
	m["shard.lookup_us"] = median(per)
	return nil
}

// refProbe times the exact request of the pinned BenchmarkServer/warm
// row (steady-hull over 8 diverging points, seed 13, default config,
// warm pool), tying this benchmark's numbers to that row.
func refProbe(m map[string]float64) {
	sys := motion.Diverging(rand.New(rand.NewSource(13)), 8)
	body := mustJSON(api.Request{V: api.Version, System: wireSystem(sys)})
	s := server.New(server.Config{})
	serve := func() {
		rq := httptest.NewRequest(http.MethodPost, "/v1/steady-hull", bytes.NewReader(body))
		s.ServeHTTP(httptest.NewRecorder(), rq)
	}
	serve()
	var ts []float64
	for i := 0; i < 100; i++ {
		t0 := time.Now()
		serve()
		ts = append(ts, us(time.Since(t0)))
	}
	m["server.handler_us.ref"] = median(ts)
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	for i := 0; i < 20; i++ {
		serve()
	}
	runtime.ReadMemStats(&b)
	m["server.handler_allocs.ref"] = float64(b.Mallocs-a.Mallocs) / 20
}

// writeSpans writes the traced run's spans as one JSON document.
func writeSpans(path string, spans []span) error {
	b, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}
