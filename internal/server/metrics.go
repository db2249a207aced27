package server

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"dyncg/internal/keys"
)

// latBuckets are the upper bounds, in microseconds, of the request
// latency histogram (the final +Inf bucket is implicit).
var latBuckets = []int64{100, 1_000, 10_000, 100_000, 1_000_000, 10_000_000}

// algoMetrics accumulates one algorithm's request counters.
type algoMetrics struct {
	codes   map[int]uint64 // HTTP status → count
	buckets []uint64       // per-bucket latency counts (len(latBuckets)+1)
	count   uint64
	sumUs   int64
}

// Metrics is the per-algorithm request registry behind GET /metrics:
// request counts by status code and a latency histogram, exposed in the
// Prometheus text format.
type Metrics struct {
	mu    sync.Mutex
	algos map[string]*algoMetrics
}

// NewMetrics returns an empty registry.
func NewMetrics() *Metrics { return &Metrics{algos: make(map[string]*algoMetrics)} }

// Observe records one finished request.
func (x *Metrics) Observe(algo string, status int, d time.Duration) {
	us := d.Microseconds()
	x.mu.Lock()
	defer x.mu.Unlock()
	am := x.algos[algo]
	if am == nil {
		am = &algoMetrics{codes: make(map[int]uint64), buckets: make([]uint64, len(latBuckets)+1)}
		x.algos[algo] = am
	}
	am.codes[status]++
	am.count++
	am.sumUs += us
	i := sort.Search(len(latBuckets), func(i int) bool { return us <= latBuckets[i] })
	am.buckets[i]++
}

// Write writes the registry in the Prometheus text exposition format,
// with algorithms and status codes in sorted order so scrapes (and
// tests) see deterministic output.
func (x *Metrics) Write(w io.Writer) {
	x.mu.Lock()
	defer x.mu.Unlock()
	names := keys.Sorted(x.algos)

	fmt.Fprintf(w, "# TYPE dyncgd_requests_total counter\n")
	for _, name := range names {
		am := x.algos[name]
		for _, c := range keys.Sorted(am.codes) {
			fmt.Fprintf(w, "dyncgd_requests_total{algorithm=%q,code=\"%d\"} %d\n", name, c, am.codes[c])
		}
	}

	fmt.Fprintf(w, "# TYPE dyncgd_request_latency_us histogram\n")
	for _, name := range names {
		am := x.algos[name]
		cum := uint64(0)
		for i, ub := range latBuckets {
			cum += am.buckets[i]
			fmt.Fprintf(w, "dyncgd_request_latency_us_bucket{algorithm=%q,le=\"%d\"} %d\n", name, ub, cum)
		}
		cum += am.buckets[len(latBuckets)]
		fmt.Fprintf(w, "dyncgd_request_latency_us_bucket{algorithm=%q,le=\"+Inf\"} %d\n", name, cum)
		fmt.Fprintf(w, "dyncgd_request_latency_us_sum{algorithm=%q} %d\n", name, am.sumUs)
		fmt.Fprintf(w, "dyncgd_request_latency_us_count{algorithm=%q} %d\n", name, am.count)
	}
}

// writeMetrics writes the server's full Prometheus exposition: the
// request registry, the session layer, the pool, admission, the front
// door, and (when recording) the replay log.
func (s *Server) writeMetrics(w io.Writer) {
	s.met.Write(w)
	s.sessMet.write(w, s.sessions.Len(), s.sessions.Evictions())

	ps := s.pool.Stats()
	fmt.Fprintf(w, "# TYPE dyncgd_pool_checkouts_total counter\n")
	fmt.Fprintf(w, "dyncgd_pool_checkouts_total{result=\"hit\"} %d\n", ps.Hits)
	fmt.Fprintf(w, "dyncgd_pool_checkouts_total{result=\"miss\"} %d\n", ps.Misses)
	fmt.Fprintf(w, "# TYPE dyncgd_pool_evictions_total counter\n")
	fmt.Fprintf(w, "dyncgd_pool_evictions_total %d\n", ps.Evictions)
	fmt.Fprintf(w, "# TYPE dyncgd_pool_idle gauge\n")
	fmt.Fprintf(w, "dyncgd_pool_idle %d\n", ps.Idle)
	fmt.Fprintf(w, "# TYPE dyncgd_pool_idle_pes gauge\n")
	fmt.Fprintf(w, "dyncgd_pool_idle_pes %d\n", ps.IdlePEs)

	fmt.Fprintf(w, "# TYPE dyncgd_inflight gauge\n")
	fmt.Fprintf(w, "dyncgd_inflight %d\n", len(s.sem))
	fmt.Fprintf(w, "# TYPE dyncgd_queue_depth gauge\n")
	fmt.Fprintf(w, "dyncgd_queue_depth %d\n", len(s.queue)-len(s.sem))
	fmt.Fprintf(w, "# TYPE dyncgd_draining gauge\n")
	d := 0
	if s.draining.Load() {
		d = 1
	}
	fmt.Fprintf(w, "dyncgd_draining %d\n", d)

	cs := s.rc.Stats()
	fmt.Fprintf(w, "# TYPE dyncg_coalesce_inflight_merged_total counter\n")
	fmt.Fprintf(w, "dyncg_coalesce_inflight_merged_total %d\n", s.CoalesceMerged())
	fmt.Fprintf(w, "# TYPE dyncg_rcache_hits_total counter\n")
	fmt.Fprintf(w, "dyncg_rcache_hits_total %d\n", cs.Hits)
	fmt.Fprintf(w, "# TYPE dyncg_rcache_misses_total counter\n")
	fmt.Fprintf(w, "dyncg_rcache_misses_total %d\n", cs.Misses)
	fmt.Fprintf(w, "# TYPE dyncg_rcache_evictions_total counter\n")
	fmt.Fprintf(w, "dyncg_rcache_evictions_total %d\n", cs.Evictions)
	fmt.Fprintf(w, "# TYPE dyncg_rcache_bytes gauge\n")
	fmt.Fprintf(w, "dyncg_rcache_bytes %d\n", cs.Bytes)

	if s.rec.Log != nil {
		rs := s.rec.Log.Stats()
		fmt.Fprintf(w, "# TYPE dyncg_replaylog_records_total counter\n")
		fmt.Fprintf(w, "dyncg_replaylog_records_total %d\n", rs.Records)
		fmt.Fprintf(w, "# TYPE dyncg_replaylog_bytes_total counter\n")
		fmt.Fprintf(w, "dyncg_replaylog_bytes_total %d\n", rs.Bytes)
		fmt.Fprintf(w, "# TYPE dyncg_replaylog_segments_total counter\n")
		fmt.Fprintf(w, "dyncg_replaylog_segments_total %d\n", rs.Segments)
		fmt.Fprintf(w, "# TYPE dyncg_replaylog_append_errors_total counter\n")
		fmt.Fprintf(w, "dyncg_replaylog_append_errors_total %d\n", rs.Errors)
	}
}
