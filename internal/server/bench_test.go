package server

import (
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sort"
	"testing"

	"dyncg/internal/api"
	"dyncg/internal/motion"
	"dyncg/internal/replaylog"
)

// benchRequest is the serving workload of the pinned benchmarks: a
// steady-state hull over 8 diverging points (64-PE hypercube class).
func benchRequest(b testing.TB) (string, []byte) {
	sys := motion.Diverging(rand.New(rand.NewSource(13)), 8)
	body, err := json.Marshal(api.Request{V: api.Version, System: wireSystem(sys)})
	if err != nil {
		b.Fatal(err)
	}
	return "steady-hull", body
}

func serveOnce(b testing.TB, s *Server, algo string, body []byte) {
	r := httptest.NewRequest(http.MethodPost, "/v1/"+algo, bytes.NewReader(body))
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, r)
	if w.Code != http.StatusOK {
		b.Fatalf("status = %d: %s", w.Code, w.Body.String())
	}
}

// BenchmarkServer is the serving entry of the pinned benchmark suite
// (scripts/bench.sh → BENCH_perf.json): one full request through decode,
// admission, pool, algorithm, and encode. The warm variant reuses the
// pooled machine every iteration, so it makes no machine or scratch
// allocations; the rational-function sign predicates run in a stack
// arena and make none either, and the Lemma 3.1 window step allocates
// nothing per window. A memory profile of the warm run (-benchtime
// 2000x -memprofilerate 1: 328 allocs/op on a 2-vCPU Xeon, go1.24.0)
// puts 38% of them in pgeom.HullStatic (12% the geom.Hull seam
// cleanup), 36% in verifySteadyHull, 8% in the system build, 1% in JSON
// decode (api.DecodeRequest, which puts the body's coefficients in one
// block) and one allocation, the hex string, in the canonical key, which
// hashes one stack buffer (it was 18 of 346 when it hashed a poly.New
// copy of every coefficient array). The cold variant constructs a
// machine per request, and the gap between the two is what the pool
// buys. The cached variant is a response-cache hit with the replay log
// on and a JSON request log: 36 allocs/op, of which 21 are the
// httptest request and recorder and the response headers, 3 decode, 2
// the replay record (its time stamp and hash; the line reuses the log's
// storage), 2 the body read, 2 the decoded request and its outcome, 1
// the canonical key and 1 the log record's attributes; a hit builds no
// system, sets no deadline timer and checks out no machine.
func BenchmarkServer(b *testing.B) {
	algo, body := benchRequest(b)
	b.Run("warm", func(b *testing.B) {
		s := New(Config{})
		serveOnce(b, s, algo, body) // populate the pool, warm the arena
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			serveOnce(b, s, algo, body)
		}
	})
	b.Run("cold", func(b *testing.B) {
		s := New(Config{PoolCap: -1}) // retention disabled: construct every time
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			serveOnce(b, s, algo, body)
		}
	})
	b.Run("cached", func(b *testing.B) {
		rlog, err := replaylog.Open(b.TempDir())
		if err != nil {
			b.Fatal(err)
		}
		s := New(Config{
			CacheBytes: DefaultCacheBytes,
			ReplayLog:  rlog,
			Logger:     slog.New(slog.NewJSONHandler(io.Discard, nil)),
		})
		serveOnce(b, s, algo, body) // compute and cache the answer
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			serveOnce(b, s, algo, body)
		}
		b.StopTimer() // sealing the segment is not a request's work
		if err := rlog.Close(); err != nil {
			b.Fatal(err)
		}
	})
}

// BenchmarkServerEndpoint is BenchmarkServer/warm for every serving
// endpoint: one warm request per endpointCases entry, so a change is
// judged on all 14 algorithms and not on the steady hull alone.
func BenchmarkServerEndpoint(b *testing.B) {
	cases := endpointCases(b)
	algos := make([]string, 0, len(cases))
	for algo := range cases {
		algos = append(algos, algo)
	}
	sort.Strings(algos)
	for _, algo := range algos {
		body, err := json.Marshal(cases[algo])
		if err != nil {
			b.Fatal(err)
		}
		b.Run(algo, func(b *testing.B) {
			s := New(Config{})
			serveOnce(b, s, algo, body)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				serveOnce(b, s, algo, body)
			}
		})
	}
}

// TestWarmRequestAllocBudget asserts the acceptance criterion end to
// end: on a warm size class the whole HTTP request performs strictly
// fewer allocations than the cold path — every machine- and
// scratch-related allocation is gone, leaving only request plumbing
// (JSON decode/encode, recorder, result slices), which the machine of a
// cold request strictly exceeds. The machine-level zero-allocation
// budget itself is pinned by TestWarmCheckoutRunAllocFree.
func TestWarmRequestAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates")
	}
	algo, body := benchRequest(t)

	warmSrv := New(Config{})
	serveOnce(t, warmSrv, algo, body)
	warm := testing.AllocsPerRun(10, func() { serveOnce(t, warmSrv, algo, body) })

	coldSrv := New(Config{PoolCap: -1})
	cold := testing.AllocsPerRun(10, func() { serveOnce(t, coldSrv, algo, body) })

	if warm >= cold {
		t.Errorf("warm request allocates %v/run, cold %v/run; the pool saved nothing", warm, cold)
	}
	t.Logf("allocs/run: warm=%v cold=%v (machine+scratch construction eliminated)", warm, cold)
}
