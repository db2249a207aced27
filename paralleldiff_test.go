// Differential test for options.workers: the simulator runs every
// per-PE loop once, on the calling goroutine, whatever worker count a
// request asks for. The count only reaches the response as the echoed
// machine.workers (and, through it, the canonical cache key), so the
// result and the simulated cost of every endpoint must not depend on it.
package dyncg_test

import (
	"encoding/json"
	"net/http"
	"reflect"
	"runtime"
	"testing"

	"dyncg/internal/api"
	"dyncg/internal/server"
	"dyncg/internal/trace"
)

// requireSpansEqual walks two span trees in lockstep and fails on the
// first structural, attribute, counter, or round-stream divergence.
func requireSpansEqual(t *testing.T, want, got *trace.Span, path string) {
	t.Helper()
	if want.Name != got.Name {
		t.Fatalf("%s: span name %q != %q", path, got.Name, want.Name)
	}
	path += "/" + want.Name
	if !reflect.DeepEqual(want.Attrs, got.Attrs) {
		t.Fatalf("%s: attrs %v != %v", path, got.Attrs, want.Attrs)
	}
	if want.Begin != got.Begin || want.End != got.End {
		t.Fatalf("%s: counters begin %+v end %+v != begin %+v end %+v",
			path, got.Begin, got.End, want.Begin, want.End)
	}
	if !reflect.DeepEqual(want.Rounds, got.Rounds) {
		t.Fatalf("%s: round stream diverges (%d vs %d rounds): got %+v want %+v",
			path, len(got.Rounds), len(want.Rounds), got.Rounds, want.Rounds)
	}
	if len(want.Children) != len(got.Children) {
		t.Fatalf("%s: %d children != %d", path, len(got.Children), len(want.Children))
	}
	for i := range want.Children {
		requireSpansEqual(t, want.Children[i], got.Children[i], path)
	}
}

// TestWorkersChangeNothing serves every one-shot endpoint on the mesh
// and the hypercube with options.workers unset, 1, 2, 8 and −1. The
// result and stats bytes must equal those of the unset request, and
// machine.workers must echo the resolved count (0 when serial). The
// response cache is off, so every request computes.
func TestWorkersChangeNothing(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	echo := map[int]int{0: 0, 1: 0, 2: 2, 8: 8, -1: procs}
	if procs == 1 {
		echo[-1] = 0
	}
	type reply struct {
		Machine api.MachineInfo `json:"machine"`
		Stats   json.RawMessage `json:"stats"`
		Result  json.RawMessage `json:"result"`
	}
	srv := server.New(server.Config{})
	for _, tp := range []string{"mesh", "hypercube"} {
		base := map[string]reply{}
		for _, workers := range []int{0, 1, 2, 8, -1} {
			for name, req := range oneShotRequests(tp, workers) {
				st, body := postJSON(t, srv, "/v1/"+name, req)
				if st != http.StatusOK {
					t.Fatalf("%s/%s workers=%d: status %d, body %s", tp, name, workers, st, body)
				}
				var got reply
				if err := json.Unmarshal(body, &got); err != nil {
					t.Fatalf("%s/%s workers=%d: %v", tp, name, workers, err)
				}
				if got.Machine.Workers != echo[workers] {
					t.Fatalf("%s/%s workers=%d: machine.workers = %d, want %d",
						tp, name, workers, got.Machine.Workers, echo[workers])
				}
				want, ok := base[name]
				if !ok {
					base[name] = got
					continue
				}
				if string(got.Result) != string(want.Result) || string(got.Stats) != string(want.Stats) {
					t.Fatalf("%s/%s workers=%d: result or stats differ from the unset request\n got %s %s\nwant %s %s",
						tp, name, workers, got.Stats, got.Result, want.Stats, want.Result)
				}
			}
		}
	}
}
