package server

import (
	"bytes"
	"log/slog"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"dyncg/internal/algo"
	"dyncg/internal/api"
	"dyncg/internal/front"
	"dyncg/internal/replaylog"
)

// warmCacheBody is the body cap of TestWarmCacheKeepsErrorAnswers,
// small enough to send a 413.
const warmCacheBody = 64 << 10

// TestWarmCacheKeepsErrorAnswers: the cache is read before validation,
// so with every endpoint's answer cached each error class must still
// answer as on a cold server — the same status, code and bytes — and
// never from the cache.
func TestWarmCacheKeepsErrorAnswers(t *testing.T) {
	warm := New(Config{CacheBytes: DefaultCacheBytes, MaxBody: warmCacheBody})
	cold := New(Config{CacheBytes: DefaultCacheBytes, MaxBody: warmCacheBody})
	cases := endpointCases(t)
	for name, req := range cases {
		if st, body := post(t, warm.Handler(), name, req); st != http.StatusOK {
			t.Fatalf("warming %s: %d %s", name, st, body)
		}
	}
	hits := warm.RCacheStats().Hits

	mutated := func(name string, mut func(*api.Request)) []byte {
		req := cases[name]
		mut(&req)
		return mustJSON(t, req)
	}
	hull := mustJSON(t, cases["steady-hull"])
	for _, tc := range []struct {
		name, algo string
		body       []byte
		status     int
		code       api.ErrorCode
	}{
		{"bad topology", "steady-hull", mutated("steady-hull", func(r *api.Request) { r.Options.Topology = "torus" }), 400, api.CodeBadTopology},
		{"bad faults", "steady-hull", mutated("steady-hull", func(r *api.Request) { r.Options.Faults = "transient=nope" }), 400, api.CodeBadFaults},
		{"empty system", "steady-hull", mutated("steady-hull", func(r *api.Request) { r.System = nil }), 400, api.CodeBadSystem},
		{"origin out of range", "closest-point-sequence", mutated("closest-point-sequence", func(r *api.Request) { r.Origin = 99 }), 400, api.CodeBadSystem},
		{"shared start", "steady-hull", mutated("steady-hull", func(r *api.Request) { r.System = append(r.System, r.System[0]) }), 400, api.CodeBadSystem},
		{"too few pes", "steady-hull", mutated("steady-hull", func(r *api.Request) {
			r.Options.Topology, r.Options.PEs = "ccc", 1<<20
		}), 422, api.CodeTooFewPEs},
		{"oversized pes", "steady-hull", mutated("steady-hull", func(r *api.Request) { r.Options.PEs = oversizedPEs }), 422, api.CodeTooFewPEs},
		{"bad version", "steady-hull", mutated("steady-hull", func(r *api.Request) { r.V = 99 }), 400, api.CodeBadVersion},
		{"torn body", "steady-hull", hull[:len(hull)-1], 400, api.CodeBadRequest},
		{"over the body cap", "steady-hull", append(bytes.Repeat([]byte(" "), warmCacheBody), hull...), 413, api.CodeBadRequest},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := postRec(t, warm.Handler(), tc.algo, tc.body)
			c := postRec(t, cold.Handler(), tc.algo, tc.body)
			if w.Code != tc.status || decodeErr(t, w.Body.Bytes()).Code != tc.code {
				t.Fatalf("warm server: %d %s, want %d %s", w.Code, w.Body, tc.status, tc.code)
			}
			if c.Code != w.Code || !bytes.Equal(c.Body.Bytes(), w.Body.Bytes()) {
				t.Errorf("warm server answered %d %s, cold %d %s", w.Code, w.Body, c.Code, c.Body)
			}
			if src := w.Header().Get("X-Dyncg-Source"); src != front.SourceComputed {
				t.Errorf("X-Dyncg-Source = %q, want computed", src)
			}
		})
	}
	if got := warm.RCacheStats().Hits; got != hits {
		t.Errorf("error requests hit the cache %d times", got-hits)
	}
}

// TestHitRecordMatchesComputed: a cache hit reports its machine from
// the request's shape, without building the system. For every
// algorithm on both topologies, serial and with two workers, the hit's
// replay meta and the machine facts of its log line must equal those
// of the computed answer it repeats.
func TestHitRecordMatchesComputed(t *testing.T) {
	dir := t.TempDir()
	rlog, err := replaylog.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	logs := &recordLog{}
	s := New(Config{CacheBytes: DefaultCacheBytes, ReplayLog: rlog, Logger: slog.New(logs)})
	type served struct {
		name  string
		attrs map[string]slog.Value
	}
	var order []served
	cases := endpointCases(t)
	for _, name := range algo.Names() {
		for _, tp := range []string{"mesh", "hypercube"} {
			for _, workers := range []int{0, 2} {
				req := cases[name]
				req.Options.Topology, req.Options.Workers = tp, workers
				for i, want := range []string{front.SourceComputed, front.SourceCache} {
					w := postRec(t, s.Handler(), name, mustJSON(t, req))
					if w.Code != http.StatusOK || w.Header().Get("X-Dyncg-Source") != want {
						t.Fatalf("%s on %s, workers %d, request %d: %d from %q, want 200 from %s (%s)",
							name, tp, workers, i, w.Code, w.Header().Get("X-Dyncg-Source"), want, w.Body)
					}
					recs := logs.take()
					if len(recs) != 1 {
						t.Fatalf("%d log records, want 1", len(recs))
					}
					attrs := map[string]slog.Value{}
					recs[0].Attrs(func(a slog.Attr) bool { attrs[a.Key] = a.Value; return true })
					order = append(order, served{name: name + "/" + tp + "/workers=" + strconv.Itoa(workers), attrs: attrs})
				}
			}
		}
	}
	if err := rlog.Close(); err != nil {
		t.Fatal(err)
	}
	recs, err := replaylog.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != len(order)+1 { // the closing anchor
		t.Fatalf("%d replay records, want %d", len(recs), len(order)+1)
	}
	for i := 0; i < len(order); i += 2 {
		computed, hit := order[i], order[i+1]
		if recs[i].Meta != recs[i+1].Meta || !bytes.Equal(recs[i].Response, recs[i+1].Response) {
			t.Errorf("%s: hit recorded %+v, computed %+v", hit.name, recs[i+1].Meta, recs[i].Meta)
		}
		for _, key := range []string{"algorithm", "status", "n", "topology", "pes", "workers", "pool_bypassed", "error"} {
			if !computed.attrs[key].Equal(hit.attrs[key]) {
				t.Errorf("%s: hit logged %s=%v, computed %v", hit.name, key, hit.attrs[key], computed.attrs[key])
			}
		}
	}
}

// decodeCorpus reads internal/api's committed FuzzDecodeRequest seed
// corpus: the hot-read spellings and the malformed families.
func decodeCorpus(t *testing.T) [][]byte {
	t.Helper()
	dir := filepath.Join("..", "api", "testdata", "fuzz", "FuzzDecodeRequest")
	entries, err := os.ReadDir(dir)
	if err != nil || len(entries) == 0 {
		t.Fatalf("reading %s: %v (%d entries)", dir, err, len(entries))
	}
	var bodies [][]byte
	for _, e := range entries {
		raw, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		_, value, _ := strings.Cut(strings.TrimSpace(string(raw)), "\n")
		quoted, ok := strings.CutPrefix(value, "[]byte(")
		if !ok {
			t.Fatalf("%s: unexpected corpus line %q", e.Name(), value)
		}
		body, err := strconv.Unquote(strings.TrimSuffix(quoted, ")"))
		if err != nil {
			t.Fatalf("%s: %v", e.Name(), err)
		}
		bodies = append(bodies, []byte(body))
	}
	return bodies
}

// TestShapeSizesLikeSystem: over the FuzzDecodeRequest corpus, every
// cacheable request whose system builds gets the same size class (and
// the same sizing error) from its canonical shape as from the built
// motion.System, for every algorithm and topology family.
func TestShapeSizesLikeSystem(t *testing.T) {
	compared := 0
	for _, body := range decodeCorpus(t) {
		var req api.Request
		if _, err := api.DecodeRequest(body, &req); err != nil {
			continue
		}
		sys, err := algo.SystemFrom(req.System)
		if err != nil {
			continue
		}
		for _, name := range algo.Names() {
			alg, _ := algo.Lookup(name)
			for _, tp := range []string{"mesh", "hypercube", "ccc", "shuffle"} {
				req.Options.Topology = tp
				res, err := front.Resolve(name, &req, 4)
				if err != nil || res.Key == "" {
					continue
				}
				fromShape, needShape, errShape := sizeClass(alg, res, res.Shape.N, res.Shape.K, req.Options.PEs)
				fromSys, needSys, errSys := sizeClass(alg, res, sys.N(), sys.K, req.Options.PEs)
				if fromShape != fromSys || needShape != needSys || (errShape == nil) != (errSys == nil) {
					t.Errorf("%s on %s, %s: shape sizes %+v/%d/%v, system %+v/%d/%v",
						name, tp, body, fromShape, needShape, errShape, fromSys, needSys, errSys)
				}
				compared++
			}
		}
	}
	if compared == 0 {
		t.Fatal("no corpus body reached sizing")
	}
}
