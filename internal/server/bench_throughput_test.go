package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"dyncg/internal/api"
	"dyncg/internal/motion"
)

// throughputWorkload is the saturation request mix: a hot set of 4
// byte-identical heavy requests (24-point hull, 1024-PE class) that the
// duplicate fraction draws from, and a pool of unique light requests
// (8-point hull, 64-PE class) that always miss the cache. The skew is
// the realistic shape for a response cache: the popular queries are the
// expensive ones. Everything is deterministic in its seeds.
type throughputWorkload struct {
	hot  [][]byte
	uniq [][]byte
}

func newThroughputWorkload(b *testing.B) *throughputWorkload {
	marshal := func(sys *motion.System) []byte {
		body, err := json.Marshal(api.Request{V: api.Version, System: wireSystem(sys)})
		if err != nil {
			b.Fatal(err)
		}
		return body
	}
	w := &throughputWorkload{}
	for i := 0; i < 4; i++ {
		w.hot = append(w.hot, marshal(motion.Diverging(rand.New(rand.NewSource(100+int64(i))), 24)))
	}
	// The unique pool recycles beyond 4096 requests; the pinned suite
	// runs far fewer iterations per row.
	for i := 0; i < 4096; i++ {
		w.uniq = append(w.uniq, marshal(motion.Diverging(rand.New(rand.NewSource(10_000+int64(i))), 8)))
	}
	return w
}

// BenchmarkServerThroughput is the saturation suite behind the req/s
// axis of BENCH_perf.json: closed-loop parallel clients driving
// steady-hull through the full serving stack at duplicate ratios
// {0%,50%}, plus an uncached/uncoalesced baseline
// at 50% duplicates — the row the cached dup=50 rows must beat by ≥2×.
// Rows report req/s via b.ReportMetric (higher is better; benchgate
// gates collapses). scripts/bench.sh runs this suite without -benchmem:
// per-op allocation under concurrent load is nondeterministic and has
// its own single-request benchmarks.
func BenchmarkServerThroughput(b *testing.B) {
	wl := newThroughputWorkload(b)
	var seedCtr atomic.Int64

	run := func(b *testing.B, h http.Handler, dupPct int) {
		var cursor atomic.Int64
		var failed atomic.Bool
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			rnd := rand.New(rand.NewSource(1000 + seedCtr.Add(1)))
			for pb.Next() {
				var body []byte
				if rnd.Intn(100) < dupPct {
					body = wl.hot[rnd.Intn(len(wl.hot))]
				} else {
					body = wl.uniq[cursor.Add(1)%int64(len(wl.uniq))]
				}
				r := httptest.NewRequest(http.MethodPost, "/v1/steady-hull", bytes.NewReader(body))
				w := httptest.NewRecorder()
				h.ServeHTTP(w, r)
				if w.Code != http.StatusOK && failed.CompareAndSwap(false, true) {
					b.Errorf("status %d: %s", w.Code, w.Body.String())
				}
			}
		})
		b.StopTimer()
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "req/s")
	}

	cached := Config{CacheBytes: DefaultCacheBytes, Coalesce: true}
	for _, dupPct := range []int{0, 50} {
		b.Run(fmt.Sprintf("dup=%d", dupPct), func(b *testing.B) {
			run(b, New(cached).Handler(), dupPct)
		})
	}
	b.Run("nocache/dup=50", func(b *testing.B) {
		run(b, New(Config{}).Handler(), 50)
	})
}
