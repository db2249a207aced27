package main

import (
	"math"
	"math/rand"
)

// workload is one traffic mix. rate is the fixed open-loop rate, about
// a tenth of the closed-loop capacity of two lanes on the reference host
// (see README.md): low enough that the open loop measures the latency of
// a request, not queueing behind the requests before it, which swung with
// the load other tenants put on the host. capacity is the one-lane closed
// loop's rate on that host, used only to size the one-shot lists
// generated (and checked by the oracle) before the timed window.
type workload struct {
	name     string
	why      string
	rate     float64                                  // open-loop req/s, both lanes together
	capacity float64                                  // closed-loop req/s at the reference host
	logDir   bool                                     // daemon records a replay log
	draw     func(r *rand.Rand, h *hotSet, i int) *op // the i-th op of a lane's stream
}

var workloads = []*workload{
	{
		name: "solve-mix",
		why: "fresh one-shots on all 14 endpoints, both topologies, three size classes each, workers=2 on one in ten; " +
			"simulator, pool and machine build do the work; open loop at 100 req/s",
		rate: 100, capacity: 340,
		draw: func(r *rand.Rand, _ *hotSet, i int) *op { return solveOp(r, i) },
	},
	{
		name: "hot-read",
		why: "95% a hot set of 32 requests in four spellings, 4% unique, 1% malformed, replay log on; " +
			"canon, cache, JSON, HTTP and log append do the work; open loop at 400 req/s",
		rate: 400, capacity: 2500, logDir: true,
		// Of every 100 ops: 4 unique, 1 malformed, the rest hot.
		draw: func(r *rand.Rand, h *hotSet, i int) *op {
			switch {
			case i%25 == 12:
				return uniqueOp(r, i/25)
			case i%100 == 50:
				return badOp(r)
			default:
				return h.pick(r)
			}
		},
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// lanes is how many client lanes (goroutines, each with its own
// connection) the open loop uses. The closed loop uses only the first
// closedLanes of them: with one request in flight it measures the host
// cost of a request rather than the share of two vCPUs that other
// tenants of the host leave free, which moved two-lane capacity by a
// quarter within two minutes on the reference VM.
const lanes, closedLanes = 2, 1

// inputs is everything a run sends, generated from the seed before the
// daemon starts.
type inputs struct {
	hot    *hotSet
	closed [closedLanes][]*op
	open   [lanes][]*op
	extra  [lanes]func() *op // continues a lane's stream past its lists
}

// generate builds a run's inputs. One-shot lists are sized from the
// workload's recorded capacity, and their answers are
// computed before the timed window. A closed loop that outruns its list
// (a faster host or a faster daemon) continues with extra ops whose
// answers are checked after the window instead.
func generate(w *workload, seed int64, closedSecs, openSecs float64) *inputs {
	in := &inputs{}
	in.hot = newHotSet(rand.New(rand.NewSource(seed)))
	nClosed := int(math.Ceil(w.capacity * closedSecs / closedLanes))
	nOpen := int(math.Ceil(w.rate*openSecs/lanes)) + 1
	for l := 0; l < lanes; l++ {
		r := rand.New(rand.NewSource(seed*1_000_003 + int64(l) + 1))
		// The lanes walk the mix's cycle 37 ops apart, so they do not
		// send the same kind of request at the same moment.
		i := l * 37
		next := func() *op {
			o := w.draw(r, in.hot, i)
			i++
			return o
		}
		for k := 0; l < closedLanes && k < nClosed; k++ {
			in.closed[l] = append(in.closed[l], next())
		}
		for k := 0; k < nOpen; k++ {
			in.open[l] = append(in.open[l], next())
		}
		in.extra[l] = next
	}
	return in
}

// oneShots lists every generated one-shot op (for the oracle).
func (in *inputs) oneShots() []*op {
	var all []*op
	for _, ops := range in.closed {
		all = append(all, ops...)
	}
	for _, ops := range in.open {
		all = append(all, ops...)
	}
	for _, sp := range in.hot.ops {
		all = append(all, sp...)
	}
	return all
}
