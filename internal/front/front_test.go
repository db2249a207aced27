package front

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"dyncg/internal/api"
	"dyncg/internal/canon"
	"dyncg/internal/rcache"
	"dyncg/internal/replaylog"
	"dyncg/internal/topo"
)

func TestWorkers(t *testing.T) {
	for _, tc := range []struct {
		requested, procs, want int
	}{
		{0, 4, 1},  // default serial
		{1, 4, 1},  // explicit serial
		{5, 4, 5},  // explicit parallel
		{-1, 4, 4}, // GOMAXPROCS of the computing process
		{-1, 1, 1}, // single-core host
		{-1, 0, 0}, // unknown procs: unresolved
		{0, 0, 1},  // nothing to resolve
		{2, 0, 2},  // explicit count needs no procs
	} {
		if got := Workers(tc.requested, tc.procs); got != tc.want {
			t.Errorf("Workers(%d, %d) = %d, want %d", tc.requested, tc.procs, got, tc.want)
		}
	}
}

func TestResolve(t *testing.T) {
	req := api.Request{V: api.Version, System: [][][]float64{{{0, 1}, {0}}, {{10, -1}, {1}}}}
	res, err := Resolve("closest-point-sequence", &req, 4)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := canon.Key("closest-point-sequence", "hypercube", 1, &req)
	if res.Topology != topo.Hypercube || res.Workers != 1 || res.Key != want {
		t.Errorf("default resolution = %+v, want hypercube/1/%s", res, want)
	}

	mesh := req
	mesh.Options.Topology = "mesh"
	mesh.Options.Workers = -1
	res, _ = Resolve("closest-point-sequence", &mesh, 4)
	want, _ = canon.Key("closest-point-sequence", "mesh", 4, &mesh)
	if res.Topology != topo.Mesh || res.Workers != 4 || res.Key != want {
		t.Errorf("mesh workers:-1 resolution = %+v, want mesh/4/%s", res, want)
	}
	if res, _ := Resolve("closest-point-sequence", &mesh, 0); res.Workers != 0 || res.Key != "" {
		t.Errorf("unknown procs: %+v, want no workers and no key", res)
	}

	faulted := req
	faulted.Options.Faults = "transient=0.1"
	if res, _ := Resolve("closest-point-sequence", &faulted, 4); res.Key != "" {
		t.Errorf("faulted request keyed %q", res.Key)
	}

	bad := req
	bad.Options.Topology = "torus"
	if _, err := Resolve("closest-point-sequence", &bad, 4); err == nil {
		t.Error("unknown topology resolved")
	}
}

// reply is a minimal Response.
type reply struct {
	status int
	body   []byte
	wired  int // Wire calls
}

func (r *reply) Wire() (int, []byte) {
	r.wired++
	return r.status, r.body
}

func TestStagePassThrough(t *testing.T) {
	ctx := context.Background()
	for _, tc := range []struct {
		name  string
		stage *Stage[*reply]
		key   string
	}{
		{"stage off", NewStage[*reply](nil, false), "k"},
		{"uncacheable", NewStage[*reply](rcache.New(1<<20), true), ""},
	} {
		for i := 0; i < 2; i++ {
			if _, hit := tc.stage.Get(tc.key); hit {
				t.Errorf("%s request %d: cache hit", tc.name, i)
			}
			v, src, err := tc.stage.Do(ctx, tc.key, func() (*reply, error) {
				return &reply{status: http.StatusOK, body: []byte("x")}, nil
			})
			if err != nil || src != SourceComputed || v.wired != 0 {
				t.Errorf("%s request %d: source %q err %v wired %d, want computed and unencoded", tc.name, i, src, err, v.wired)
			}
		}
	}
}

func TestStageCache(t *testing.T) {
	ctx := context.Background()
	rc := rcache.New(1 << 20)
	s := NewStage[*reply](rc, false)
	computed := 0
	compute := func(status int) func() (*reply, error) {
		return func() (*reply, error) {
			computed++
			return &reply{status: status, body: []byte("body")}, nil
		}
	}
	// Non-200 answers are never cached.
	for i := 0; i < 2; i++ {
		if _, hit := s.Get("bad"); hit {
			t.Errorf("error answer %d was cached", i)
		}
		if _, src, _ := s.Do(ctx, "bad", compute(http.StatusBadRequest)); src != SourceComputed {
			t.Errorf("error answer %d: source %q", i, src)
		}
	}
	if _, src, _ := s.Do(ctx, "ok", compute(http.StatusOK)); src != SourceComputed {
		t.Errorf("first 200: source %q", src)
	}
	if body, hit := s.Get("ok"); !hit || string(body) != "body" {
		t.Errorf("repeat: hit %v body %q, want the cached body", hit, body)
	}
	// Do never reads the cache: a door that skips Get (the drain gate)
	// computes even a cached key.
	if _, src, _ := s.Do(ctx, "ok", compute(http.StatusOK)); src != SourceComputed {
		t.Errorf("gated read: source %q", src)
	}
	if computed != 4 {
		t.Errorf("computed %d times, want 4", computed)
	}
	// Two misses and a hit: Do and an uncacheable Get count nothing.
	s.Get("")
	if st := rc.Stats(); st.Hits != 1 || st.Misses != 2 {
		t.Errorf("cache counted %d hits, %d misses; want 1, 2", st.Hits, st.Misses)
	}
	if s.Merged() != 0 {
		t.Errorf("Merged = %d without coalescing", s.Merged())
	}
}

func TestStageCoalesce(t *testing.T) {
	ctx := context.Background()
	s := NewStage[*reply](nil, true)
	entered, gate := make(chan struct{}), make(chan struct{})
	leader := &reply{status: http.StatusOK, body: []byte("once")}
	var wg sync.WaitGroup
	srcs := make([]string, 2)
	vals := make([]*reply, 2)
	wg.Add(1)
	go func() {
		defer wg.Done()
		vals[0], srcs[0], _ = s.Do(ctx, "k", func() (*reply, error) {
			close(entered)
			<-gate
			return leader, nil
		})
	}()
	<-entered
	wg.Add(1)
	go func() {
		defer wg.Done()
		vals[1], srcs[1], _ = s.Do(ctx, "k", func() (*reply, error) {
			t.Error("follower computed")
			return nil, nil
		})
	}()
	for s.Merged() < 1 {
		time.Sleep(time.Millisecond) // until the follower joins the flight
	}
	close(gate)
	wg.Wait()
	if srcs[0] != SourceComputed || srcs[1] != SourceCoalesced {
		t.Errorf("sources = %v, want computed then coalesced", srcs)
	}
	if vals[0] != leader || vals[1] != leader || leader.wired != 1 {
		t.Errorf("flight shared %p/%p (leader %p), encoded %d times, want one shared encode", vals[0], vals[1], leader, leader.wired)
	}

	// A follower whose context expires unblocks with its error.
	entered, gate = make(chan struct{}), make(chan struct{})
	go s.Do(ctx, "slow", func() (*reply, error) {
		close(entered)
		<-gate
		return leader, nil
	})
	<-entered
	done, cancel := context.WithCancel(ctx)
	cancel()
	if _, src, err := s.Do(done, "slow", nil); !errors.Is(err, context.Canceled) || src != SourceCoalesced {
		t.Errorf("expired follower: source %q err %v", src, err)
	}
	close(gate)
}

func TestReadBody(t *testing.T) {
	for _, tc := range []struct {
		body   string
		status int
	}{
		{"small", 0},
		{strings.Repeat("x", 64), http.StatusRequestEntityTooLarge},
	} {
		r := httptest.NewRequest(http.MethodPost, "/v1/x", strings.NewReader(tc.body))
		raw, st, err := ReadBody(httptest.NewRecorder(), r, 16)
		if st != tc.status {
			t.Errorf("%d-byte body: status %d, want %d", len(tc.body), st, tc.status)
		}
		if st == 0 && (err != nil || string(raw) != tc.body) {
			t.Errorf("read %q, %v", raw, err)
		}
		if st != 0 && !strings.HasPrefix(err.Error(), "server: decoding request: ") {
			t.Errorf("error %q lacks the decode prefix", err)
		}
	}
	r := httptest.NewRequest(http.MethodPost, "/v1/x", errReader{})
	if _, st, err := ReadBody(httptest.NewRecorder(), r, 16); st != http.StatusBadRequest || err == nil {
		t.Errorf("failed read: status %d err %v, want 400", st, err)
	}
}

// TestReadBodyPresizeBounded: a Content-Length claim sizes the buffer
// only up to maxPresize, so a client that claims 8 MiB and sends 10
// bytes gets no 8 MiB allocation; a truthful claim is read in one
// buffer.
func TestReadBodyPresizeBounded(t *testing.T) {
	const claimed = 8 << 20
	read := func(body string, length int64) []byte {
		r := httptest.NewRequest(http.MethodPost, "/v1/x", strings.NewReader(body))
		r.ContentLength = length
		raw, _, _ := ReadBody(httptest.NewRecorder(), r, claimed)
		return raw
	}
	if raw := read("0123456789", claimed); string(raw) != "0123456789" || cap(raw) > maxPresize+1 {
		t.Errorf("claimed %d, sent 10: read %q into cap %d, want at most %d", claimed, raw, cap(raw), maxPresize+1)
	}
	body := strings.Repeat("x", 3000)
	if raw := read(body, int64(len(body))); string(raw) != body || cap(raw) != len(body)+1 {
		t.Errorf("truthful 3000-byte claim: read %d bytes into cap %d, want one buffer of %d", len(raw), cap(raw), len(body)+1)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < 10; i++ {
		read("0123456789", claimed)
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / 10; per > 2*maxPresize {
		t.Errorf("a lying 8 MiB claim allocates %d bytes per request, want at most about the presize bound %d", per, maxPresize)
	}
}

type errReader struct{}

func (errReader) Read([]byte) (int, error) { return 0, errors.New("connection reset") }

func TestRecorderSend(t *testing.T) {
	dir := t.TempDir()
	log, err := replaylog.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	rc := Recorder{Log: log}
	for _, body := range []struct {
		raw   string
		known Known
	}{{`{"v":1}`, 0}, {"not json", 0}, {"", 0}, {"{\n \"v\": 1\n}", RawJSON}, {`{"v":1}`, RawJSON | RawEmbedded | BodyEmbedded}} {
		w := httptest.NewRecorder()
		rc.Send(w, httptest.NewRequest(http.MethodPost, "/v1/x?q=1", nil), http.StatusTeapot,
			[]byte(`{"ok":true}`), []byte(body.raw), body.known, api.ReplayMeta{PEs: 4})
		if w.Code != http.StatusTeapot || w.Body.String() != "{\"ok\":true}\n" ||
			w.Header().Get("Content-Type") != "application/json" {
			t.Errorf("wrote %d %q (%s)", w.Code, w.Body, w.Header().Get("Content-Type"))
		}
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	recs, err := replaylog.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var got []api.ReplayRecord
	for _, rec := range recs {
		if !rec.Anchor {
			got = append(got, rec)
		}
	}
	if len(got) != 5 {
		t.Fatalf("recorded %d records, want 5", len(got))
	}
	for _, rec := range got {
		if rec.Path != "/v1/x?q=1" || rec.Status != http.StatusTeapot || rec.Meta.PEs != 4 ||
			string(rec.Response) != `{"ok":true}` {
			t.Errorf("record %+v", rec)
		}
	}
	if string(got[0].Request) != `{"v":1}` || got[0].RequestBin != nil {
		t.Errorf("JSON body recorded as %q / %q", got[0].Request, got[0].RequestBin)
	}
	if got[1].Request != nil || !bytes.Equal(got[1].RequestBin, []byte("not json")) {
		t.Errorf("non-JSON body recorded as %q / %q", got[1].Request, got[1].RequestBin)
	}
	if got[2].Request != nil || got[2].RequestBin != nil {
		t.Errorf("empty body recorded as %q / %q", got[2].Request, got[2].RequestBin)
	}
	// A body that decoded is recorded as JSON without a second scan, and
	// the record stores it compacted.
	if string(got[3].Request) != `{"v":1}` || got[3].RequestBin != nil {
		t.Errorf("decoded body recorded as %q / %q", got[3].Request, got[3].RequestBin)
	}
	// Bodies known embedded are copied without a scan, as they are.
	if string(got[4].Request) != `{"v":1}` || got[4].RequestBin != nil {
		t.Errorf("embedded body recorded as %q / %q", got[4].Request, got[4].RequestBin)
	}
}
