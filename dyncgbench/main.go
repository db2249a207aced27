// Command dyncgbench is the repository's end-to-end benchmark of the
// dyncgd serving daemon. It starts the daemon built from the tree under
// test as a real process, drives it over loopback HTTP (a one-lane
// closed-loop phase for per-request cost, then a two-lane open-loop phase
// at a fixed rate for latency), checks every answer against a direct facade
// call, and prints one JSON result line. With -trace 1 it also serves a
// sample of the workload in process, timing each layer's public entry
// points, and prints the per-layer metrics instead.
//
// Run it from the repository root through run.sh, which builds both
// binaries:
//
//	bash dyncgbench/run.sh --workload solve-mix --seed 1 --seconds 40 --trace 0
//	bash dyncgbench/run.sh --summary
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"dyncg/internal/replaylog"
)

func main() {
	var (
		name    = flag.String("workload", "", "traffic mix: solve-mix|hot-read")
		seed    = flag.Int64("seed", 1, "workload seed: the same seed generates the same request bodies")
		seconds = flag.Int("seconds", 40, "measured seconds per run, split evenly between the closed and open phases")
		trace   = flag.Int("trace", 0, "1 prints the per-layer metrics of a traced in-process run instead of the end-to-end ones")
		bin     = flag.String("dyncgd", "", "dyncgd binary built from the tree under test")
		work    = flag.String("work", ".bench_build", "directory for run records, spans and temporary replay logs")
		summary = flag.Bool("summary", false, "print the median and quartiles of every metric over the recorded runs, then exit")
	)
	flag.Parse()
	if *summary {
		if err := summarize(os.Stdout, filepath.Join(*work, "runs")); err != nil {
			fmt.Fprintln(os.Stderr, "dyncgbench:", err)
			os.Exit(1)
		}
		return
	}
	w := workloadByName(*name)
	if w == nil || *bin == "" || *seconds < 2 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "dyncgbench: need -dyncgd, a -workload of solve-mix|hot-read, -seconds ≥ 2 and -trace 0|1")
		os.Exit(2)
	}
	os.Exit(run(w, *seed, *seconds, *trace == 1, *bin, *work))
}

// tally collects a run's operation count, failures and their reasons.
type tally struct {
	attempted, failed int64
	errs              []string
}

func (t *tally) fail(format string, args ...any) {
	t.failed++
	if len(t.errs) < 20 {
		t.errs = append(t.errs, fmt.Sprintf(format, args...))
	}
}

func run(w *workload, seed int64, seconds int, traced bool, bin, work string) int {
	facts := readHostFacts()
	tmp := filepath.Join(work, "tmp", fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "dyncgbench:", err)
		return 1
	}
	defer os.RemoveAll(tmp)

	closedDur := time.Duration(seconds) * time.Second / 2
	openDur := time.Duration(seconds)*time.Second - closedDur
	prep := time.Now()
	in := generate(w, seed, closedDur.Seconds(), openDur.Seconds())
	if err := precompute(in.oneShots(), 2); err != nil {
		fmt.Fprintln(os.Stderr, "dyncgbench:", err)
		return 1
	}
	prepS := time.Since(prep).Seconds()

	var t tally
	notes := map[string]any{}
	c := newClient(lanes)
	defer c.close()
	hot := &hotBodies{}
	ls := make([]*lane, lanes)

	// Set-up, several times: spawn to a healthy /healthz. The last daemon
	// stays up for the measurement.
	const setups = 15
	var setupS []float64
	var cl *cluster
	for i := 0; i < setups; i++ {
		logDir := ""
		if w.logDir {
			logDir = filepath.Join(tmp, fmt.Sprintf("log-%d", i))
		}
		t0 := time.Now()
		var err error
		cl, err = startCluster(c, bin, logDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "dyncgbench:", err)
			return 1
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		if i < setups-1 {
			for _, p := range cl.procs {
				p.kill()
			}
		}
	}
	for l := range ls {
		ls[l] = &lane{base: cl.base, c: c, hot: hot}
	}
	defer func() {
		if cl != nil {
			for _, p := range cl.procs {
				p.kill()
			}
		}
	}()
	before, err := scrapeMetrics(c, cl.base)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dyncgbench:", err)
		return 1
	}
	rounds := roundsFor(seconds)
	ms, err := measure(w, in, cl, ls, rounds, closedDur, openDur)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dyncgbench:", err)
		return 1
	}
	rss, err := cl.peakRSSMiB()
	if err != nil {
		fmt.Fprintln(os.Stderr, "dyncgbench:", err)
		return 1
	}
	after, err := scrapeMetrics(c, cl.base)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dyncgbench:", err)
		return 1
	}
	t.attempted += ms.ops
	t.failed += ms.failed
	var deferred []*op
	for _, ln := range ls {
		deferred = append(deferred, ln.deferred...)
	}
	if err := precompute(deferred, 2); err != nil {
		t.fail("%v", err)
	}
	for _, o := range deferred {
		if o.exp == nil {
			continue
		}
		if err := checkOneShot(o, o.status, o.got); err != nil {
			t.fail("%v", err)
		}
	}
	notes["checked_after_window"] = len(deferred)
	for _, ln := range ls {
		for _, e := range ln.errs {
			if len(t.errs) < 20 {
				t.errs = append(t.errs, e)
			}
		}
	}

	var hops []hopProbe
	if traced {
		hops = measureHops(c, cl.base, w, seed, in, &t)
	}

	if err := cl.stop(); err != nil {
		t.attempted++
		t.fail("daemon shutdown: %v", err)
	}
	cl = nil
	if w.logDir {
		t.attempted++
		dir := filepath.Join(tmp, fmt.Sprintf("log-%d", setups-1))
		if n, err := replaylog.VerifyChain(dir); err != nil {
			t.fail("replay log chain: %v", err)
		} else {
			notes["replaylog_records"] = n
		}
	}

	metrics := map[string]float64{}
	goodput, cpuPerOp := ms.closed()
	p50, tail, tailP, tailOK := ms.open()
	metrics["setup_s"] = median(setupS)
	metrics["goodput_rps"] = goodput
	metrics["lat_p50_ms"] = p50
	metrics["cpu_ms_per_op"] = cpuPerOp
	metrics["rss_mb"] = rss

	all := ms.all()
	notes["prepare_s"] = prepS
	notes["closed_ops"] = ms.closedOps
	notes["open_ops"] = ms.openOps
	notes["open_rate"] = w.rate
	var rg, rc, rp, rcs, ros []float64
	for _, r := range ms.rounds {
		rg, rc, rp = append(rg, r.goodput), append(rc, r.cpuPerOp), append(rp, percentile(r.latMs, 50))
		rcs, ros = append(rcs, r.closedSteal), append(ros, r.openSteal)
	}
	notes["round_goodput_rps"], notes["round_cpu_ms_per_op"], notes["round_lat_p50_ms"] = rg, rc, rp
	notes["round_closed_steal"], notes["round_open_steal"] = rcs, ros
	notes["tail_percentile"] = tailP
	notes["lat_tail_ms"] = tail
	p99, _, _ := tailPercentile(all, 99)
	notes["lat_p99_all_rounds_ms"] = p99
	notes["generator_late_p50_ms"] = percentile(ms.lateMs, 50)
	notes["generator_late_p99_ms"] = percentile(ms.lateMs, 99)
	notes["setup_runs_s"] = setupS
	if !tailOK {
		t.fail("open loop produced only %d samples, too few for a tail percentile", len(all))
	}

	oneShots := 0.0
	for _, ln := range ls {
		oneShots += float64(ln.oneShots)
	}
	layerRatios(metrics, before, after, float64(ms.ops), oneShots)

	if traced {
		tracedStart := time.Now()
		tr, err := tracedRun(w, seed, in, tmp, hops)
		notes["traced_s"] = time.Since(tracedStart).Seconds()
		t.attempted++
		if err != nil {
			t.fail("traced run: %v", err)
		} else {
			for k, v := range tr.metrics {
				metrics[k] = v
			}
			if len(tr.mismatches) > 0 {
				t.fail("traced pipeline differs from the server: %s", strings.Join(tr.mismatches, "\n"))
			}
			spanPath := filepath.Join(work, fmt.Sprintf("spans-%s-%d.json", w.name, seed))
			if err := writeSpans(spanPath, tr.spans); err != nil {
				fmt.Fprintln(os.Stderr, "dyncgbench:", err)
			}
		}
	}
	errorFrac := float64(t.failed) / float64(max(t.attempted, 1))

	correct := t.failed == 0
	rec := runRecord{
		Workload: w.name, Seed: seed, Seconds: seconds, Trace: traced, Host: facts,
		Correct: correct, Attempted: t.attempted, Failed: t.failed, ErrorFrac: errorFrac,
		Metrics: metrics, Notes: notes, Errors: t.errs,
	}
	if err := saveRecord(work, &rec); err != nil {
		fmt.Fprintln(os.Stderr, "dyncgbench:", err)
	}

	for _, e := range t.errs {
		fmt.Fprintln(os.Stderr, "dyncgbench: FAIL:", e)
	}
	fmt.Printf("host: cpus=%d gomaxprocs=%d go=%s cpu=%q commit=%s seed=%d workload=%s\n",
		facts.NumCPU, facts.GOMAXPROCS, facts.GoVersion, facts.CPUModel, facts.Commit, seed, w.name)
	fmt.Printf("prepare: inputs and oracle in %.2fs\n", prepS)
	fmt.Printf("phases: %d rounds; closed %d ops; open %d ops at %.0f req/s (tail p%d %.4g ms); generator late p50 %.3fms p99 %.3fms; host steal median closed %.3f open %.3f\n",
		rounds, ms.closedOps, ms.openOps, w.rate, tailP, tail,
		percentile(ms.lateMs, 50), percentile(ms.lateMs, 99), median(rcs), median(ros))
	fmt.Printf("error_frac = %.6f ratio (%d failed of %d attempted)\n", errorFrac, t.failed, t.attempted)

	list := e2eMetrics
	if traced {
		list = layerMetrics
	}
	out := map[string]any{}
	for _, m := range list {
		v, ok := metrics[m.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		fmt.Printf("%s = %.6g %s\n", m.name, v, m.unit)
		out[m.name] = map[string]any{"value": v, "unit": m.unit}
	}
	line, _ := json.Marshal(map[string]any{
		"correct": correct, "attempted": t.attempted, "failed": t.failed, "metrics": out,
	})
	fmt.Println(string(line))
	if !correct {
		return 1
	}
	return 0
}

// roundsFor is how many closed-then-open windows a run of the given
// length measures: one per two seconds, at least three.
func roundsFor(seconds int) int { return max(3, seconds/2) }

// round is the tally of one closed-then-open window.
type round struct {
	goodput, cpuPerOp      float64   // closed phase
	closedSteal, openSteal float64   // host steal over vCPU time, per phase
	latMs                  []float64 // open phase, ascending
}

// calm returns the rounds in which the hypervisor stole no more of this
// host's vCPU time, in the phase steal reads, than in the run's median
// round. On the reference VM other guests took from 0 to over 30% of
// it, for stretches of seconds to minutes, and a round's rate and
// latency moved with it; an end-to-end figure is read from the calmer
// rounds only. With no steal at all every round is calm.
func calm(rs []round, steal func(round) float64) []round {
	var ss []float64
	for _, r := range rs {
		ss = append(ss, steal(r))
	}
	lim := median(ss)
	var out []round
	for _, r := range rs {
		if steal(r) <= lim {
			out = append(out, r)
		}
	}
	return out
}

// measurement is the untraced run's tally.
type measurement struct {
	ops, failed        int64
	closedOps, openOps int64
	rounds             []round
	lateMs             []float64 // pooled over rounds, ascending
}

// closed reports the median closed-loop goodput and CPU per operation
// over the rounds calm in their closed phase.
func (m *measurement) closed() (goodput, cpuPerOp float64) {
	var g, c []float64
	for _, r := range calm(m.rounds, func(r round) float64 { return r.closedSteal }) {
		g = append(g, r.goodput)
		c = append(c, r.cpuPerOp)
	}
	return median(g), median(c)
}

// open reports, over the rounds calm in their open phase, the median of
// each round's p50 and the median of each round's tail: the highest
// percentile ≤ tailTop that leaves at least ten samples beyond it in
// every one of those rounds.
func (m *measurement) open() (p50, tail float64, tailP int, ok bool) {
	rs := calm(m.rounds, func(r round) float64 { return r.openSteal })
	tailP = tailTop
	for _, r := range rs {
		_, p, ok := tailPercentile(r.latMs, tailTop)
		if !ok {
			return 0, 0, 0, false
		}
		tailP = min(tailP, p)
	}
	var p50s, tails []float64
	for _, r := range rs {
		p50s = append(p50s, percentile(r.latMs, 50))
		tails = append(tails, percentile(r.latMs, float64(tailP)))
	}
	return median(p50s), median(tails), tailP, len(rs) > 0
}

// all pools the open-loop latencies of every round, ascending.
func (m *measurement) all() []float64 {
	var xs []float64
	for _, r := range m.rounds {
		xs = append(xs, r.latMs...)
	}
	sort.Float64s(xs)
	return xs
}

// cursor hands out a pregenerated op list in order, then continues
// the lane's stream.
type cursor struct {
	ops   []*op
	extra func() *op
}

func (c *cursor) next() *op {
	if len(c.ops) == 0 {
		return c.extra()
	}
	o := c.ops[0]
	c.ops = c.ops[1:]
	return o
}

// measure runs the untraced rounds against the live cluster.
func measure(w *workload, in *inputs, cl *cluster, ls []*lane, rounds int, closedDur, openDur time.Duration) (*measurement, error) {
	step := func(l int) bool { return ls[l].step() }
	var closedCur, openCur [lanes]*cursor
	for l := range ls {
		closedCur[l] = &cursor{extra: in.extra[l]}
		if l < closedLanes {
			closedCur[l].ops = in.closed[l]
		}
		openCur[l] = &cursor{ops: in.open[l], extra: in.extra[l]}
	}
	use := func(cur [lanes]*cursor) {
		for l := range ls {
			ls[l].next = cur[l].next
		}
	}
	m := &measurement{}
	stealShare := func(st0 float64, t0 time.Time) float64 {
		return (stealMs() - st0) / (float64(runtime.NumCPU()) * ms(time.Since(t0)))
	}
	for r := 0; r < rounds; r++ {
		var rd round
		cpu0, err := cl.cpuMs()
		if err != nil {
			return nil, err
		}
		st0, t0 := stealMs(), time.Now()
		use(closedCur)
		c := closedLoop(closedLanes, closedDur/time.Duration(rounds), step)
		rd.closedSteal = stealShare(st0, t0)
		cpu1, err := cl.cpuMs()
		if err != nil {
			return nil, err
		}
		if c.ops > 0 {
			rd.goodput = float64(c.ops-c.failed) / c.elapsed.Seconds()
			rd.cpuPerOp = (cpu1 - cpu0) / float64(c.ops)
		}
		st0, t0 = stealMs(), time.Now()
		use(openCur)
		o := openLoop(lanes, w.rate, openDur/time.Duration(rounds), step)
		rd.openSteal = stealShare(st0, t0)
		rd.latMs = o.latMs
		m.rounds = append(m.rounds, rd)
		m.ops += c.ops + o.ops
		m.failed += c.failed + o.failed
		m.closedOps += c.ops
		m.openOps += o.ops
		m.lateMs = append(m.lateMs, o.lateMs...)
	}
	sort.Float64s(m.lateMs)
	return m, nil
}

// layerRatios derives the per-layer ratios that come from the daemon's
// own counters, as deltas across the untraced run.
func layerRatios(m map[string]float64, before, after scrape, ops, oneShots float64) {
	d := func(name string, labels ...string) float64 {
		return after.sum(name, labels...) - before.sum(name, labels...)
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	hits, misses := d("dyncg_rcache_hits_total"), d("dyncg_rcache_misses_total")
	merged := d("dyncg_coalesce_inflight_merged_total")
	m["rcache.hit_ratio"] = ratio(hits, hits+misses)
	m["rcache.evictions_per_op"] = ratio(d("dyncg_rcache_evictions_total"), ops)
	m["coalesce.merged_ratio"] = ratio(merged, oneShots)
	ph, pm := d("dyncgd_pool_checkouts_total", `result="hit"`), d("dyncgd_pool_checkouts_total", `result="miss"`)
	m["pool.hit_ratio"] = ratio(ph, ph+pm)
	m["pool.idle_pes"] = after.sum("dyncgd_pool_idle_pes")
}

// measureHops times cache-hit requests against the live daemon for
// http.hop_us: each probe body is sent once to make sure it is cached,
// then five more times.
func measureHops(c *client, base string, w *workload, seed int64, in *inputs, t *tally) []hopProbe {
	var hops []hopProbe
	for _, it := range traceSample(w, seed, in) {
		if len(hops) >= 20 {
			break
		}
		if it.o.kind != kSolve && it.o.kind != kHot {
			continue
		}
		url := base + "/v1/" + it.o.algo
		if st, _, err := c.do(http.MethodPost, url, it.o.body); err != nil || st != http.StatusOK {
			t.attempted++
			t.fail("hop probe: status %d err %v", st, err)
			continue
		}
		var lat []float64
		for k := 0; k < 5; k++ {
			t0 := time.Now()
			st, _, err := c.do(http.MethodPost, url, it.o.body)
			lat = append(lat, us(time.Since(t0)))
			if err != nil || st != http.StatusOK {
				t.attempted++
				t.fail("hop probe: status %d err %v", st, err)
			}
		}
		hops = append(hops, hopProbe{algo: it.o.algo, body: it.o.body, latUs: median(lat)})
	}
	return hops
}

func saveRecord(work string, rec *runRecord) error {
	dir := filepath.Join(work, "runs")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(rec, "", " ")
	if err != nil {
		return err
	}
	trace := 0
	if rec.Trace {
		trace = 1
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d-%d.json", rec.Workload, rec.Seed, trace, time.Now().UnixNano()))
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("saving run record: %w", err)
	}
	return nil
}
