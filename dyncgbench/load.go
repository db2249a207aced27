package main

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// client is the load generator's HTTP side: one transport capped at two
// connections, matching the two client lanes (the host has two CPUs
// and the daemon needs them more than the generator does).
type client struct {
	hc *http.Client
}

func newClient(conns int) *client {
	tr := &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
		IdleConnTimeout:     time.Minute,
	}
	return &client{hc: &http.Client{Transport: tr, Timeout: time.Minute}}
}

// do sends one request and reads the whole response.
func (c *client) do(method, url string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// hotBodies remembers the first response body seen for each hot-set
// request; every later spelling must get the same bytes.
type hotBodies struct {
	mu    sync.Mutex
	first map[int][]byte
}

func (h *hotBodies) check(i int, body []byte) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.first == nil {
		h.first = map[int][]byte{}
	}
	prev, ok := h.first[i]
	if !ok {
		h.first[i] = body
		return nil
	}
	if !bytes.Equal(prev, body) {
		return fmt.Errorf("hot request %d: spellings got different bodies:\n %.160s\n %.160s", i, prev, body)
	}
	return nil
}

// lane is one client of the load generator: it owns an op stream and
// its tallies. A lane runs on one goroutine.
type lane struct {
	base     string
	c        *client
	next     func() *op
	hot      *hotBodies
	oneShots int64 // one-shot ops sent (the coalesce ratio's base)
	deferred []*op // one-shots answered before their expectation exists
	errs     []string
}

// exec sends one op and checks its answer; false means the op failed,
// was refused, or got a wrong answer.
func (l *lane) exec(o *op) bool {
	err := l.send(o)
	if err != nil && len(l.errs) < 5 {
		l.errs = append(l.errs, err.Error())
	}
	return err == nil
}

func (l *lane) send(o *op) error {
	l.oneShots++
	status, body, err := l.c.do(http.MethodPost, l.base+"/v1/"+o.algo, o.body)
	if err != nil {
		return err
	}
	if o.exp == nil && o.kind != kBad {
		o.status, o.got = status, body
		l.deferred = append(l.deferred, o)
		return nil
	}
	if err := checkOneShot(o, status, body); err != nil {
		return err
	}
	if o.kind == kHot {
		return l.hot.check(o.hot, body)
	}
	return nil
}

// step runs the lane's next op and reports whether its answer was
// correct.
func (l *lane) step() bool { return l.exec(l.next()) }

// phase is the tally of one load phase.
type phase struct {
	ops, failed int64
	elapsed     time.Duration
	latMs       []float64 // open loop: per-op latency from due time (+Inf for failures)
	lateMs      []float64 // open loop: how late the generator woke for an op it was idle for
}

// closedLoop runs each lane back to back (the next op leaves when the
// previous answer arrives) until dur elapses.
func closedLoop(lanes int, dur time.Duration, step func(lane int) bool) phase {
	start := time.Now()
	deadline := start.Add(dur)
	tallies := make([]phase, lanes)
	ends := make([]time.Time, lanes)
	var wg sync.WaitGroup
	for i := 0; i < lanes; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			t := &tallies[i]
			for time.Now().Before(deadline) {
				t.ops++
				if !step(i) {
					t.failed++
				}
			}
			ends[i] = time.Now()
		}(i)
	}
	wg.Wait()
	var out phase
	for i, t := range tallies {
		out.ops += t.ops
		out.failed += t.failed
		if d := ends[i].Sub(start); d > out.elapsed {
			out.elapsed = d
		}
	}
	return out
}

// openLoop sends ops on a fixed schedule, op k due at start + k/rate.
// Op k goes to whichever lane claims it first, so any free connection
// serves the next due request. A lane still busy at an op's
// due time sends it as soon as it is free, and the op's latency is
// timed from its due time, so a stall inflates the latency of every op
// queued behind it. The time a lane oversleeps an op it was idle for is
// the generator's own lateness (the runtime's timers round sleeps up to
// the millisecond): it is reported on its own and left out of that op's
// latency, which then runs from the moment the op was sent.
func openLoop(lanes int, rate float64, dur time.Duration, step func(lane int) bool) phase {
	start := time.Now().Add(10 * time.Millisecond)
	end := start.Add(dur)
	tallies := make([]phase, lanes)
	var claimed atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < lanes; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			t := &tallies[i]
			for {
				idx := claimed.Add(1) - 1
				due := start.Add(time.Duration(float64(idx) / rate * float64(time.Second)))
				if !due.Before(end) {
					return
				}
				from := due
				if wait := time.Until(due); wait > 0 {
					time.Sleep(wait)
					from = time.Now()
					t.lateMs = append(t.lateMs, ms(from.Sub(due)))
				}
				ok := step(i)
				lat := ms(time.Since(from))
				t.ops++
				if !ok {
					t.failed++
					lat = math.Inf(1)
				}
				t.latMs = append(t.latMs, lat)
			}
		}(i)
	}
	wg.Wait()
	out := phase{elapsed: time.Since(start)}
	for _, t := range tallies {
		out.ops += t.ops
		out.failed += t.failed
		out.latMs = append(out.latMs, t.latMs...)
		out.lateMs = append(out.lateMs, t.lateMs...)
	}
	sort.Float64s(out.latMs)
	sort.Float64s(out.lateMs)
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
