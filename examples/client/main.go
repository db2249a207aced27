// Client: talk to a running dyncgd daemon over its v1 JSON protocol.
// The request/response structs are written out with plain stdlib JSON —
// exactly what a client in any language would send — so this file doubles
// as wire-schema documentation.
//
//	go run ./cmd/dyncgd &           # start the daemon on :8080
//	go run ./examples/client            # one-shot request
//	go run ./examples/client -session   # stateful session round-trip
//
// -session drives the batch-dynamic surface — create → update → query →
// delete — and cross-checks every maintained answer against a direct
// dyncg facade session running the same scenario in-process, exiting
// non-zero on any divergence (scripts/server_smoke.sh runs this mode in
// CI).
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"

	"dyncg"
)

// request is the v1 envelope of POST /v1/<algorithm>. A system is
// point → coordinate → ascending polynomial coefficients, so
// [[[0,1],[0]], ...] is a point at (t, 0).
type request struct {
	V       int           `json:"v"`
	System  [][][]float64 `json:"system"`
	Origin  int           `json:"origin,omitempty"`
	Options options       `json:"options,omitempty"`
}

type options struct {
	Topology string `json:"topology,omitempty"`
	Workers  int    `json:"workers,omitempty"`
	Faults   string `json:"faults,omitempty"`
	Trace    bool   `json:"trace,omitempty"`
}

// response is the v1 response envelope; result is left raw because its
// shape depends on the algorithm (here: a closest-point sequence).
type response struct {
	V         int    `json:"v"`
	Algorithm string `json:"algorithm"`
	Machine   struct {
		Topology string `json:"topology"`
		PEs      int    `json:"pes"`
	} `json:"machine"`
	Stats struct {
		Time      int64 `json:"time"`
		CommSteps int64 `json:"comm_steps"`
		Rounds    int64 `json:"rounds"`
	} `json:"stats"`
	Pool struct {
		Hit bool `json:"hit"`
	} `json:"pool"`
	Result []neighborEvent `json:"result"`
}

// neighborEvent is one element of a closest-point sequence. Interval
// ends may be the JSON string "inf", so the bounds decode into any.
type neighborEvent struct {
	Point int `json:"point"`
	Lo    any `json:"lo"`
	Hi    any `json:"hi"`
}

// The session wire envelopes (POST /v1/sessions and friends).
type sessionCreateRequest struct {
	V         int           `json:"v"`
	Algorithm string        `json:"algorithm"`
	System    [][][]float64 `json:"system"`
	Origin    int           `json:"origin,omitempty"`
}

type sessionDelta struct {
	Op    string      `json:"op"`
	ID    int         `json:"id,omitempty"`
	Point [][]float64 `json:"point,omitempty"`
}

type sessionUpdateRequest struct {
	V      int            `json:"v"`
	Deltas []sessionDelta `json:"deltas"`
}

type sessionResponse struct {
	V       int `json:"v"`
	Session struct {
		ID      string `json:"id"`
		Points  []int  `json:"points"`
		Updates uint64 `json:"updates"`
	} `json:"session"`
	Inserted    []int           `json:"inserted"`
	DirtyLeaves int             `json:"dirty_leaves"`
	MergedNodes int             `json:"merged_nodes"`
	Result      []neighborEvent `json:"result"`
	Verified    *bool           `json:"verified"`
}

func main() {
	addr := flag.String("addr", "http://localhost:8080", "dyncgd base URL")
	topo := flag.String("topo", "hypercube", "machine family: mesh|hypercube|ccc|shuffle")
	session := flag.Bool("session", false, "drive a stateful session round-trip instead of a one-shot request")
	flag.Parse()

	if *session {
		runSession(*addr)
		return
	}

	// Three moving points in the plane (the quickstart system):
	// P0 sits at the origin, P1 flies east, P2 dives toward P0.
	req := request{
		V:       1,
		System:  quickstartWire(),
		Origin:  0,
		Options: options{Topology: *topo},
	}
	body, err := json.Marshal(req)
	if err != nil {
		fatal(err)
	}
	raw, hdr := do(http.MethodPost, *addr+"/v1/closest-point-sequence", body)
	var resp response
	if err := json.Unmarshal(raw, &resp); err != nil {
		fatal(err)
	}

	fmt.Printf("served by member %q, source %q, api v%s\n",
		hdr.Get("X-Dyncg-Member"), hdr.Get("X-Dyncg-Source"), hdr.Get("X-Dyncg-Api-Version"))
	fmt.Printf("closest points to P0 over time (served by a %d-PE %s, pool hit: %v):\n",
		resp.Machine.PEs, resp.Machine.Topology, resp.Pool.Hit)
	for _, ev := range resp.Result {
		fmt.Printf("  P%-2d on [%v, %v]\n", ev.Point, ev.Lo, ev.Hi)
	}
	fmt.Printf("simulated parallel time: %d steps (%d comm rounds)\n",
		resp.Stats.Time, resp.Stats.Rounds)
}

// runSession drives create → update → query → delete against the daemon
// and replays the identical scenario on a direct facade session,
// demanding the two answers agree event-for-event at every step.
func runSession(addr string) {
	// The daemon-side session.
	var created sessionResponse
	mustDecode(post(addr+"/v1/sessions", sessionCreateRequest{
		V: 1, Algorithm: "closest-point-sequence", System: quickstartWire(),
	}), &created)
	id := created.Session.ID
	fmt.Printf("session %s created over %d points\n", id, len(created.Session.Points))

	// The in-process oracle: the same scenario on a facade session.
	sys, err := dyncg.NewSystem(quickstartPoints())
	if err != nil {
		fatal(err)
	}
	capacity := 2 * sys.N() // the server-side default: max(2n, 8)
	if capacity < 8 {
		capacity = 8
	}
	pes, err := dyncg.SessionPEs(dyncg.Hypercube, dyncg.SessionClosestPointSeq, capacity, sys.K)
	if err != nil {
		fatal(err)
	}
	m, err := dyncg.NewMachine(dyncg.Hypercube, pes)
	if err != nil {
		fatal(err)
	}
	direct, err := dyncg.NewSession(m, dyncg.SessionConfig{
		Algorithm: dyncg.SessionClosestPointSeq,
		Capacity:  capacity,
	}, sys)
	if err != nil {
		fatal(err)
	}
	compare("create", created.Result, direct.Result().Neighbors)

	// One delta batch: a new contact appears and P2 changes course.
	p3 := dyncg.NewPoint(dyncg.Polynomial(3, -1), dyncg.Polynomial(-4, 1))
	p2 := dyncg.NewPoint(dyncg.Polynomial(1), dyncg.Polynomial(30, -2))
	var updated sessionResponse
	mustDecode(post(addr+"/v1/sessions/"+id+"/update", sessionUpdateRequest{
		V: 1,
		Deltas: []sessionDelta{
			{Op: "insert", Point: wirePoint(p3)},
			{Op: "retarget", ID: 2, Point: wirePoint(p2)},
		},
	}), &updated)
	if _, _, err := direct.Apply(dyncg.InsertPoint(p3), dyncg.RetargetPoint(2, p2)); err != nil {
		fatal(err)
	}
	fmt.Printf("update applied: inserted %v, %d dirty leaves, %d block merges\n",
		updated.Inserted, updated.DirtyLeaves, updated.MergedNodes)
	compare("update", updated.Result, direct.Result().Neighbors)

	// Query with the server-side bit-identity audit on.
	var queried sessionResponse
	mustDecode(get(addr+"/v1/sessions/"+id+"/query?verify=1"), &queried)
	if queried.Verified == nil || !*queried.Verified {
		fatal(fmt.Errorf("server verify=1 audit failed"))
	}
	compare("query", queried.Result, direct.Result().Neighbors)
	fmt.Println("query verified bit-identical to a from-scratch rebuild")

	// Delete; the session must be gone.
	req, err := http.NewRequest(http.MethodDelete, addr+"/v1/sessions/"+id, nil)
	if err != nil {
		fatal(err)
	}
	hr, err := http.DefaultClient.Do(req)
	if err != nil {
		fatal(err)
	}
	hr.Body.Close()
	if hr.StatusCode != http.StatusOK {
		fatal(fmt.Errorf("delete returned %s", hr.Status))
	}
	if hr, err = http.Get(addr + "/v1/sessions/" + id + "/query"); err != nil {
		fatal(err)
	}
	hr.Body.Close()
	if hr.StatusCode != http.StatusNotFound {
		fatal(fmt.Errorf("deleted session still answers: %s", hr.Status))
	}
	fmt.Println("session deleted; HTTP and direct facade sessions agreed at every step")
}

// compare checks a wire result against the facade session's events,
// treating the JSON string "inf"/"-inf" as ±infinity.
func compare(step string, wire []neighborEvent, want []dyncg.NeighborEvent) {
	if len(wire) != len(want) {
		fatal(fmt.Errorf("%s: HTTP session returned %d events, facade %d", step, len(wire), len(want)))
	}
	for i, ev := range wire {
		if ev.Point != want[i].Point || bound(ev.Lo) != want[i].Lo || bound(ev.Hi) != want[i].Hi {
			fatal(fmt.Errorf("%s: event %d diverged: HTTP {P%d [%v,%v]}, facade %+v",
				step, i, ev.Point, ev.Lo, ev.Hi, want[i]))
		}
	}
	fmt.Printf("  %s: %d events match the direct facade session\n", step, len(wire))
}

func bound(v any) float64 {
	switch b := v.(type) {
	case float64:
		return b
	case string:
		if b == "-inf" {
			return math.Inf(-1)
		}
		return math.Inf(1)
	}
	fatal(fmt.Errorf("unexpected interval bound %v", v))
	return 0
}

func quickstartPoints() []dyncg.Point {
	return []dyncg.Point{
		dyncg.NewPoint(dyncg.Polynomial(0), dyncg.Polynomial(0)),
		dyncg.NewPoint(dyncg.Polynomial(1, 2), dyncg.Polynomial(0)),
		dyncg.NewPoint(dyncg.Polynomial(0), dyncg.Polynomial(20, -1)),
	}
}

func quickstartWire() [][][]float64 {
	return [][][]float64{
		{{0}, {0}},
		{{1, 2}, {0}},
		{{0}, {20, -1}},
	}
}

func wirePoint(p dyncg.Point) [][]float64 {
	coords := make([][]float64, len(p.Coord))
	for j, c := range p.Coord {
		coords[j] = append([]float64(nil), c...)
	}
	return coords
}

// apiError is the v1 error envelope: a stable machine-readable code,
// a human message, whether the condition is load-shaped (worth one
// retry), and — behind a fleet front door — the member the failure is
// attributed to.
type apiError struct {
	V         int    `json:"v"`
	Code      string `json:"code"`
	Message   string `json:"message"`
	Retryable bool   `json:"retryable"`
	Member    string `json:"member"`
}

func post(url string, body any) []byte {
	raw, err := json.Marshal(body)
	if err != nil {
		fatal(err)
	}
	b, _ := do(http.MethodPost, url, raw)
	return b
}

func get(url string) []byte {
	b, _ := do(http.MethodGet, url, nil)
	return b
}

// do issues one request, decoding the typed error envelope on any
// non-200. Retryable codes (queue_full, draining, …) get exactly one
// client-side retry; everything else is fatal with the code and the
// attributed member surfaced.
func do(method, url string, body []byte) ([]byte, http.Header) {
	for attempt := 0; ; attempt++ {
		var rd io.Reader
		if body != nil {
			rd = bytes.NewReader(body)
		}
		req, err := http.NewRequest(method, url, rd)
		if err != nil {
			fatal(err)
		}
		if body != nil {
			req.Header.Set("Content-Type", "application/json")
		}
		hr, err := http.DefaultClient.Do(req)
		if err != nil {
			fatal(fmt.Errorf("%w (is dyncgd running? go run ./cmd/dyncgd)", err))
		}
		raw, err := io.ReadAll(hr.Body)
		hr.Body.Close()
		if err != nil {
			fatal(err)
		}
		if hr.StatusCode == http.StatusOK {
			return raw, hr.Header
		}
		var e apiError
		if json.Unmarshal(raw, &e) == nil && e.Code != "" {
			if e.Retryable && attempt == 0 {
				fmt.Fprintf(os.Stderr, "client: %s is retryable, retrying once\n", e.Code)
				continue
			}
			member := ""
			if e.Member != "" {
				member = fmt.Sprintf(" (member %s)", e.Member)
			}
			fatal(fmt.Errorf("daemon error %s, code %s%s: %s", hr.Status, e.Code, member, e.Message))
		}
		fatal(fmt.Errorf("daemon returned %s: %s", hr.Status, raw))
	}
}

func mustDecode(raw []byte, into any) {
	if err := json.Unmarshal(raw, into); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "client:", err)
	os.Exit(1)
}
