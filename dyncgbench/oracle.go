package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"slices"
	"sync"

	"dyncg/internal/api"
	"dyncg/internal/topo"
)

// expect is the answer a one-shot request must get: the result payload
// bytes and simulated Stats of a direct facade call on the same system,
// and the machine size it ran on. The pool field is deliberately not
// part of it: whether a machine came warm from the pool depends on
// traffic, not on the request.
type expect struct {
	result []byte
	stats  api.Stats
	pes    int
}

// directCall runs a one-shot request straight against the facade on a
// fresh machine, the reference every served answer must match.
func directCall(algo string, req *api.Request) (*expect, error) {
	e, ok := endpointByName[algo]
	if !ok {
		return nil, fmt.Errorf("unknown endpoint %q", algo)
	}
	sys, err := systemFrom(req.System)
	if err != nil {
		return nil, err
	}
	tp := topo.Topology(req.Options.Topology)
	if tp == "" {
		tp = topo.Hypercube
	}
	need := e.pes(string(tp), sys)
	if req.Options.PEs > need {
		need = req.Options.PEs
	}
	m, err := topo.NewMachine(tp, need)
	if err != nil {
		return nil, err
	}
	res, err := e.run(m, sys, req)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", algo, err)
	}
	b, err := json.Marshal(res)
	if err != nil {
		return nil, err
	}
	return &expect{result: b, stats: api.FromStats(m.Stats()), pes: m.Size()}, nil
}

// precompute fills the expectation of every one-shot op with the given
// number of goroutines. Ops sharing a request (spellings of one hot
// request) share one expectation.
func precompute(ops []*op, workers int) error {
	byReq := map[*api.Request]*expect{}
	var todo []*api.Request
	algoOf := map[*api.Request]string{}
	for _, o := range ops {
		if o.req == nil {
			continue
		}
		if _, seen := algoOf[o.req]; !seen {
			algoOf[o.req] = o.algo
			todo = append(todo, o.req)
		}
	}
	exps := make([]*expect, len(todo))
	errs := make([]error, len(todo))
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				exps[i], errs[i] = directCall(algoOf[todo[i]], todo[i])
			}
		}()
	}
	for i := range todo {
		next <- i
	}
	close(next)
	wg.Wait()
	for i, req := range todo {
		if errs[i] != nil {
			return fmt.Errorf("oracle: %w", errs[i])
		}
		byReq[req] = exps[i]
	}
	for _, o := range ops {
		if o.req != nil {
			o.exp = byReq[o.req]
		}
	}
	return nil
}

// oneShotEnvelope is the part of a v1 response the checks read; the
// result stays raw so it compares byte for byte.
type oneShotEnvelope struct {
	V         int             `json:"v"`
	Algorithm string          `json:"algorithm"`
	Machine   api.MachineInfo `json:"machine"`
	Stats     api.Stats       `json:"stats"`
	Result    json.RawMessage `json:"result"`
}

// checkOneShot judges one one-shot answer: a malformed body must get a
// 400 bad_request envelope; any other request a 200 whose result, Stats
// and machine size equal the direct facade call's.
func checkOneShot(o *op, status int, body []byte) error {
	if o.kind == kBad {
		var e api.Error
		if status != http.StatusBadRequest || json.Unmarshal(body, &e) != nil ||
			e.Code != api.CodeBadRequest || e.V != api.Version {
			return fmt.Errorf("malformed body got %d %.120s, want 400 bad_request", status, body)
		}
		return nil
	}
	if status != http.StatusOK {
		return fmt.Errorf("%s: status %d: %.200s", o.algo, status, body)
	}
	var env oneShotEnvelope
	if err := json.Unmarshal(body, &env); err != nil {
		return fmt.Errorf("%s: undecodable response: %v", o.algo, err)
	}
	x := o.exp
	switch {
	case env.V != api.Version || env.Algorithm != o.algo:
		return fmt.Errorf("%s: envelope v=%d algorithm=%q", o.algo, env.V, env.Algorithm)
	case !bytes.Equal(env.Result, x.result):
		return fmt.Errorf("%s: result differs from the direct call:\n got  %.200s\n want %.200s", o.algo, env.Result, x.result)
	case env.Stats != x.stats:
		return fmt.Errorf("%s: stats %+v, want %+v", o.algo, env.Stats, x.stats)
	case env.Machine.PEs != x.pes:
		return fmt.Errorf("%s: machine has %d PEs, want %d", o.algo, env.Machine.PEs, x.pes)
	}
	return nil
}

// sessionEnvelope covers the create, update and query responses.
type sessionEnvelope struct {
	Session struct {
		ID     string `json:"id"`
		Points []int  `json:"points"`
	} `json:"session"`
	Inserted []int           `json:"inserted"`
	Result   json.RawMessage `json:"result"`
	Verified *bool           `json:"verified"`
}

// checkSession judges one session answer against the op's predicted
// point IDs and returns the session ID the server reported.
func checkSession(o *op, status int, body []byte) (string, error) {
	if status != http.StatusOK {
		return "", fmt.Errorf("session op %d: status %d: %.200s", o.kind, status, body)
	}
	if o.kind == kDelete {
		return "", nil
	}
	var env sessionEnvelope
	if err := json.Unmarshal(body, &env); err != nil {
		return "", fmt.Errorf("session op %d: undecodable response: %v", o.kind, err)
	}
	if !slices.Equal(env.Session.Points, o.points) {
		return "", fmt.Errorf("session op %d: live points %v, want %v", o.kind, env.Session.Points, o.points)
	}
	if o.kind == kUpdate && !slices.Equal(env.Inserted, o.insert) {
		return "", fmt.Errorf("session update: inserted %v, want %v", env.Inserted, o.insert)
	}
	if o.kind == kVerify && (env.Verified == nil || !*env.Verified) {
		return "", fmt.Errorf("session %s: ?verify=1 did not report verified", env.Session.ID)
	}
	return env.Session.ID, nil
}
