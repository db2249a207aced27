package main

// metric describes one reported number. For per-layer metrics, moves
// names the end-to-end metrics a change in this layer should move and
// on the workloads where the layer is on the request path (or the
// traced run's probe that times it when no workload's path crosses it)
// — written down before measuring, so a claimed gain can be checked
// against it.
type metric struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	bound  float64
	moves  string
	on     string
}

// e2eMetrics are printed with --trace 0. error_frac is printed on the
// human-readable lines and carried by the result's attempted/failed
// counts instead: it is 0 on a correct run, and a metric that is 0 has
// no spread to judge. The open-loop tail is printed there too, but has
// no bound: hypervisor steal moved it by several times between runs of
// the same code (see README.md).
var e2eMetrics = []metric{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "goodput_rps", unit: "req/s", better: "higher", bound: 0.25},
	{name: "lat_p50_ms", unit: "ms", better: "lower", bound: 0.25},
	{name: "cpu_ms_per_op", unit: "ms", better: "lower", bound: 0.25},
	{name: "rss_mb", unit: "MiB", better: "lower", bound: 0.25},
}

// layerMetrics are printed with --trace 1: median self time per call
// ("_us"), allocations per call ("_allocs", runtime.MemStats deltas
// around single-threaded calls), counts per operation, and ratios from
// the daemon's /metrics counters scraped around the untraced run.
var layerMetrics = []metric{
	{name: "http.hop_us", unit: "us", better: "lower", moves: "lat_p50_ms cpu_ms_per_op", on: "hot-read"},
	{name: "api.decode_us", unit: "us", better: "lower", moves: "goodput_rps", on: "hot-read"},
	{name: "api.decode_allocs", unit: "count", better: "lower", moves: "goodput_rps", on: "hot-read"},
	{name: "api.encode_us", unit: "us", better: "lower", moves: "goodput_rps", on: "hot-read solve-mix"},
	{name: "api.encode_allocs", unit: "count", better: "lower", moves: "goodput_rps", on: "hot-read solve-mix"},
	{name: "api.resp_bytes", unit: "bytes", better: "lower", moves: "goodput_rps", on: "hot-read solve-mix"},
	{name: "canon.key_us", unit: "us", better: "lower", moves: "goodput_rps", on: "hot-read"},
	{name: "canon.key_allocs", unit: "count", better: "lower", moves: "goodput_rps", on: "hot-read"},
	{name: "rcache.get_us", unit: "us", better: "lower", moves: "lat_p50_ms", on: "hot-read"},
	{name: "rcache.hit_ratio", unit: "ratio", better: "higher", moves: "lat_p50_ms", on: "hot-read"},
	{name: "rcache.put_us", unit: "us", better: "lower", moves: "none on solve-mix (Put churn)", on: "solve-mix hot-read"},
	{name: "rcache.evictions_per_op", unit: "count", better: "lower", moves: "none on solve-mix (Put churn)", on: "solve-mix hot-read"},
	{name: "coalesce.merged_ratio", unit: "ratio", better: "higher", moves: "lat_p50_ms", on: "hot-read"},
	{name: "server.handler_us", unit: "us", better: "lower", moves: "cpu_ms_per_op rss_mb", on: "solve-mix"},
	{name: "server.unattributed_us", unit: "us", better: "lower", moves: "cpu_ms_per_op", on: "solve-mix"},
	{name: "server.handler_us.traced", unit: "us", better: "lower", moves: "none (tracing overhead)", on: "all"},
	{name: "server.trace_overhead_us", unit: "us", better: "lower", moves: "none (tracing overhead)", on: "all"},
	{name: "server.handler_us.ref", unit: "us", better: "lower", moves: "ties to BenchmarkServer/warm", on: "all"},
	{name: "server.handler_allocs.ref", unit: "count", better: "lower", moves: "ties to BenchmarkServer/warm", on: "all"},
	{name: "pool.hit_ratio", unit: "ratio", better: "higher", moves: "cpu_ms_per_op rss_mb", on: "solve-mix"},
	{name: "pool.get_us", unit: "us", better: "lower", moves: "cpu_ms_per_op", on: "solve-mix"},
	{name: "pool.idle_pes", unit: "count", better: "lower", moves: "rss_mb", on: "solve-mix"},
	{name: "topo.new_machine_us", unit: "us", better: "lower", moves: "goodput_rps setup_s", on: "solve-mix"},
	{name: "topo.new_machine_allocs", unit: "count", better: "lower", moves: "goodput_rps setup_s", on: "solve-mix"},
	{name: "motion.system_us", unit: "us", better: "lower", moves: "goodput_rps", on: "solve-mix"},
	{name: "motion.system_allocs", unit: "count", better: "lower", moves: "goodput_rps", on: "solve-mix"},
	{name: "core.run_us", unit: "us", better: "lower", moves: "goodput_rps lat_p50_ms", on: "solve-mix"},
	{name: "core.run_allocs", unit: "count", better: "lower", moves: "goodput_rps lat_p50_ms", on: "solve-mix"},
	{name: "core.handler_share", unit: "ratio", better: "lower", moves: "goodput_rps", on: "solve-mix"},
	{name: "machine.rounds_per_op", unit: "count", better: "lower", moves: "none: must repeat exactly; explains core.run_us", on: "solve-mix"},
	{name: "machine.msgs_per_op", unit: "count", better: "lower", moves: "none: must repeat exactly; explains core.run_us", on: "solve-mix"},
	{name: "machine.sim_time_per_op", unit: "steps", better: "lower", moves: "none: must repeat exactly; explains core.run_us", on: "solve-mix"},
	{name: "replaylog.append_us", unit: "us", better: "lower", moves: "lat_p50_ms cpu_ms_per_op", on: "hot-read"},
	{name: "replaylog.append_allocs", unit: "count", better: "lower", moves: "lat_p50_ms cpu_ms_per_op", on: "hot-read"},
	{name: "replaylog.bytes_per_record", unit: "bytes", better: "lower", moves: "lat_p50_ms cpu_ms_per_op", on: "hot-read"},
	{name: "session.create_us", unit: "us", better: "lower", moves: "goodput_rps lat_p50_ms setup_s", on: "traced session probe"},
	{name: "session.apply_us", unit: "us", better: "lower", moves: "goodput_rps lat_p50_ms", on: "traced session probe"},
	{name: "session.dirty_leaves_per_batch", unit: "count", better: "lower", moves: "goodput_rps lat_p50_ms", on: "traced session probe"},
	{name: "session.merged_nodes_per_batch", unit: "count", better: "lower", moves: "goodput_rps lat_p50_ms", on: "traced session probe"},
	{name: "session.query_us", unit: "us", better: "lower", moves: "goodput_rps lat_p50_ms", on: "traced session probe"},
	{name: "session.rebuild_us", unit: "us", better: "lower", moves: "goodput_rps lat_p50_ms", on: "traced session probe"},
	{name: "fleet.hop_us", unit: "us", better: "lower", moves: "lat_p50_ms goodput_rps", on: "traced fleet probe"},
	{name: "shard.lookup_us", unit: "us", better: "lower", moves: "lat_p50_ms goodput_rps", on: "traced fleet probe"},
}

func init() {
	for _, e := range endpoints {
		layerMetrics = append(layerMetrics, metric{
			name: "core.run_us." + e.name, unit: "us", better: "lower",
			moves: "goodput_rps lat_p50_ms", on: "solve-mix",
		})
	}
}
