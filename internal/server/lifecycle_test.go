package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"dyncg/internal/api"
	"dyncg/internal/replaylog"
)

// recordLog is a slog.Handler that keeps every record, so a test can
// assert each record's level, message and attributes in order.
type recordLog struct {
	mu   sync.Mutex
	recs []slog.Record
}

func (h *recordLog) Enabled(context.Context, slog.Level) bool { return true }
func (h *recordLog) WithAttrs([]slog.Attr) slog.Handler       { return h }
func (h *recordLog) WithGroup(string) slog.Handler            { return h }

func (h *recordLog) Handle(_ context.Context, r slog.Record) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.recs = append(h.recs, r.Clone())
	return nil
}

// take returns and forgets the records kept so far.
func (h *recordLog) take() []slog.Record {
	h.mu.Lock()
	defer h.mu.Unlock()
	recs := h.recs
	h.recs = nil
	return recs
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// sidToken stands for the session ID the create case mints, in paths,
// attribute values and replay metadata.
const sidToken = "{sid}"

// TestStructuredRequestLog pins what every /v1 request leaves behind:
// exactly one slog record (level, message, every attribute in order;
// the latency's value varies and only its kind is checked) and one
// replay record (status and Meta). The cases run in order on one server
// with the response cache on: a computed one-shot, its cache hit, a
// pool hit, a fault-injected run, a 404 for an unknown name, a 400 for a
// torn body, the session create → update → query → verified query →
// delete round trip with its failures, and 5xx admission rejects of a
// one-shot and a create while draining.
func TestStructuredRequestLog(t *testing.T) {
	dir := t.TempDir()
	rlog, err := replaylog.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	logs := &recordLog{}
	s := New(Config{Logger: slog.New(logs), ReplayLog: rlog, CacheBytes: DefaultCacheBytes})
	h := s.Handler()

	cases := endpointCases(t)
	hull := mustJSON(t, cases["steady-hull"])
	faulted := cases["steady-hull"]
	faulted.Options.Faults = "transient=0.05,retries=3,fail=1,gap=150"
	faulted.Options.FaultSeed = 42
	create := mustJSON(t, api.SessionCreateRequest{
		V: api.Version, Algorithm: "closest-point-sequence",
		System: cases["closest-point-sequence"].System, Origin: 1,
	})
	update := mustJSON(t, api.SessionUpdateRequest{V: api.Version, Deltas: []api.SessionDelta{
		{Op: "insert", Point: [][]float64{{50, 1}, {-50, 2}}},
		{Op: "retarget", ID: 2, Point: [][]float64{{7, -1}, {8}}},
	}})

	oneShot := func(name string, status int, n int, tp string, pes int, hit, bypassed bool, source string, sim int64, errMsg string) []slog.Attr {
		return []slog.Attr{
			slog.String("algorithm", name),
			slog.Int("status", status),
			slog.Duration("latency", 0),
			slog.Int("n", n),
			slog.String("topology", tp),
			slog.Int("pes", pes),
			slog.Int("workers", 0),
			slog.Bool("pool_hit", hit),
			slog.Bool("pool_bypassed", bypassed),
			slog.String("source", source),
			slog.Int64("sim_time", sim),
			slog.String("error", errMsg),
		}
	}
	sess := func(endpoint, sid string, status int, extra ...slog.Attr) []slog.Attr {
		return append([]slog.Attr{
			slog.String("endpoint", endpoint),
			slog.String("session_id", sid),
			slog.Int("status", status),
			slog.Duration("latency", 0),
		}, extra...)
	}
	hullMeta := api.ReplayMeta{Topology: "hypercube", PEs: 64}
	sessMeta := api.ReplayMeta{Topology: "hypercube", PEs: 128, Session: sidToken}

	steps := []struct {
		name         string
		method, path string
		body         []byte
		drain        bool
		status       int
		level        slog.Level
		msg          string
		attrs        []slog.Attr
		meta         api.ReplayMeta
	}{
		{"computed", "POST", "/v1/steady-hull", hull, false, 200, slog.LevelInfo, "request",
			oneShot("steady-hull", 200, 8, "hypercube", 64, false, false, "computed", 2911, ""), hullMeta},
		{"cache hit", "POST", "/v1/steady-hull", hull, false, 200, slog.LevelInfo, "request",
			oneShot("steady-hull", 200, 8, "hypercube", 64, false, false, "cache", 0, ""), hullMeta},
		{"pool hit", "POST", "/v1/steady-farthest-pair", mustJSON(t, cases["steady-farthest-pair"]), false, 200, slog.LevelInfo, "request",
			oneShot("steady-farthest-pair", 200, 8, "hypercube", 64, true, false, "computed", 3024, ""), hullMeta},
		{"faulted", "POST", "/v1/steady-hull", mustJSON(t, faulted), false, 200, slog.LevelInfo, "request",
			oneShot("steady-hull", 200, 8, "hypercube", 32, false, true, "computed", 3189, ""),
			api.ReplayMeta{Topology: "hypercube", PEs: 32, FaultSeed: 42}},
		{"unknown algorithm", "POST", "/v1/nosuch", hull, false, 404, slog.LevelInfo, "request",
			oneShot("nosuch", 404, 0, "", 0, false, false, "computed", 0, `server: unknown algorithm "nosuch"`), api.ReplayMeta{}},
		{"bad body", "POST", "/v1/steady-hull", []byte(`{"v":1,`), false, 400, slog.LevelInfo, "request",
			oneShot("steady-hull", 400, 0, "", 0, false, false, "computed", 0, "server: decoding request: unexpected end of JSON input"), api.ReplayMeta{}},
		{"session create", "POST", "/v1/sessions", create, false, 200, slog.LevelInfo, "session",
			sess("create", sidToken, 200), sessMeta},
		{"session update", "POST", "/v1/sessions/" + sidToken + "/update", update, false, 200, slog.LevelInfo, "session",
			sess("update", sidToken, 200, slog.Int("deltas", 2)), sessMeta},
		{"session update bad body", "POST", "/v1/sessions/" + sidToken + "/update", []byte(`{"v":1,"deltas":[{"op":"nope"}]}`), false, 400, slog.LevelInfo, "session",
			sess("update", sidToken, 400, slog.Int("deltas", 1)), api.ReplayMeta{Session: sidToken}},
		{"session update torn body", "POST", "/v1/sessions/" + sidToken + "/update", []byte(`{"v":1,`), false, 400, slog.LevelInfo, "session",
			sess("update", sidToken, 400, slog.Int("deltas", 0)), api.ReplayMeta{Session: sidToken}},
		{"session query", "GET", "/v1/sessions/" + sidToken + "/query", nil, false, 200, slog.LevelInfo, "session",
			sess("query", sidToken, 200, slog.Bool("verify", false)), sessMeta},
		{"session verified query", "GET", "/v1/sessions/" + sidToken + "/query?verify=1", nil, false, 200, slog.LevelInfo, "session",
			sess("query", sidToken, 200, slog.Bool("verify", true)), sessMeta},
		{"session delete", "DELETE", "/v1/sessions/" + sidToken, nil, false, 200, slog.LevelInfo, "session",
			sess("delete", sidToken, 200), api.ReplayMeta{Session: sidToken}},
		{"session query after delete", "GET", "/v1/sessions/" + sidToken + "/query", nil, false, 404, slog.LevelInfo, "session",
			sess("query", sidToken, 404, slog.Bool("verify", false)), api.ReplayMeta{Session: sidToken}},
		{"draining one-shot", "POST", "/v1/steady-hull", hull, true, 503, slog.LevelError, "request",
			oneShot("steady-hull", 503, 8, "", 0, false, false, "computed", 0, "server: request not admitted: draining"), api.ReplayMeta{}},
		{"draining create", "POST", "/v1/sessions", create, true, 503, slog.LevelError, "session",
			sess("create", "", 503), api.ReplayMeta{}},
	}

	sid := ""
	subst := func(v string) string { return strings.ReplaceAll(v, sidToken, sid) }
	for _, st := range steps {
		s.SetDraining(st.drain)
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(st.method, subst(st.path), bytes.NewReader(st.body)))
		if w.Code != st.status {
			t.Fatalf("%s: status = %d, want %d (%s)", st.name, w.Code, st.status, w.Body.Bytes())
		}
		if st.name == "session create" {
			var resp api.SessionCreateResponse
			if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil || resp.Session.ID == "" {
				t.Fatalf("%s: no session ID in %s", st.name, w.Body.Bytes())
			}
			sid = resp.Session.ID
		}

		recs := logs.take()
		if len(recs) != 1 {
			t.Errorf("%s: %d log records, want 1", st.name, len(recs))
			continue
		}
		rec := recs[0]
		if rec.Level != st.level || rec.Message != st.msg {
			t.Errorf("%s: record %v %q, want %v %q", st.name, rec.Level, rec.Message, st.level, st.msg)
		}
		var got []slog.Attr
		rec.Attrs(func(a slog.Attr) bool { got = append(got, a); return true })
		if len(got) != len(st.attrs) {
			t.Errorf("%s: attrs %v, want %v", st.name, got, st.attrs)
			continue
		}
		for j, want := range st.attrs {
			if want.Value.Kind() == slog.KindString {
				want.Value = slog.StringValue(subst(want.Value.String()))
			}
			a := got[j]
			if a.Key == "latency" && want.Key == "latency" {
				if a.Value.Kind() != slog.KindDuration {
					t.Errorf("%s: latency has kind %v", st.name, a.Value.Kind())
				}
				continue
			}
			if !a.Equal(want) {
				t.Errorf("%s: attr %d = %v, want %v", st.name, j, a, want)
			}
		}
	}
	s.SetDraining(false)

	if got := rlog.Stats().Records; got != uint64(len(steps)) {
		t.Fatalf("replay log has %d records, want %d", got, len(steps))
	}
	if err := rlog.Close(); err != nil {
		t.Fatal(err)
	}
	recs, err := replaylog.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i, st := range steps {
		want := st.meta
		want.Session = subst(want.Session)
		if recs[i].Status != st.status || recs[i].Meta != want {
			t.Errorf("%s: replay record %d %+v, want %d %+v", st.name, recs[i].Status, recs[i].Meta, st.status, want)
		}
	}
}

// TestUnknownAlgorithmsShareOneSeries: every 404 unknown_algorithm is
// observed under the one label "unknown", so requests for made-up names
// cannot add /metrics series; each log record keeps the requested name.
func TestUnknownAlgorithmsShareOneSeries(t *testing.T) {
	logs := &recordLog{}
	s := New(Config{Logger: slog.New(logs)})
	for i := 0; i < 3; i++ {
		if st, body := rawCall(t, s.Handler(), "POST", fmt.Sprintf("/v1/junk-%d", i), []byte(`{}`)); st != 404 {
			t.Fatalf("junk-%d: status %d, want 404 (%s)", i, st, body)
		}
	}
	_, metrics := rawCall(t, s.Handler(), "GET", "/metrics", nil)
	for _, want := range []string{
		`dyncgd_requests_total{algorithm="unknown",code="404"} 3`,
		`dyncgd_request_latency_us_count{algorithm="unknown"} 3`,
	} {
		if !strings.Contains(string(metrics), want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	if strings.Contains(string(metrics), "junk") {
		t.Errorf("metrics carry a series per unknown name:\n%s", metrics)
	}
	for i, rec := range logs.take() {
		want := slog.String("algorithm", fmt.Sprintf("junk-%d", i))
		rec.Attrs(func(a slog.Attr) bool {
			if a.Key == want.Key && !a.Equal(want) {
				t.Errorf("record %d: %v, want %v", i, a, want)
			}
			return true
		})
	}
}
