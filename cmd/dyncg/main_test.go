package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"dyncg/internal/algo"
	"dyncg/internal/api"
	"dyncg/internal/server"
)

// cliRun runs the command with args and returns its stdout.
func cliRun(t *testing.T, args ...string) string {
	t.Helper()
	var out bytes.Buffer
	if err := run(args, &out); err != nil {
		t.Fatalf("dyncg %s: %v", strings.Join(args, " "), err)
	}
	return out.String()
}

var (
	timeRe     = regexp.MustCompile(`simulated parallel time on .*: time=(\d+)`)
	attemptsRe = regexp.MustCompile(`fault report: attempts=(\d+)`)
)

// cliResult returns the compacted JSON result a report prints between
// the workload line and the stats line, and the simulated time.
func cliResult(t *testing.T, report string) ([]byte, int64) {
	t.Helper()
	_, rest, ok := strings.Cut(report, "\n")
	body, _, ok2 := strings.Cut(rest, "\n\nsimulated parallel time")
	m := timeRe.FindStringSubmatch(report)
	if !ok || !ok2 || m == nil {
		t.Fatalf("unexpected report:\n%s", report)
	}
	var buf bytes.Buffer
	if err := json.Compact(&buf, []byte(body)); err != nil {
		t.Fatalf("result is not JSON (%v):\n%s", err, body)
	}
	simTime, _ := strconv.ParseInt(m[1], 10, 64)
	return buf.Bytes(), simTime
}

// TestCLIMatchesServer: for every algorithm in the table, on mesh and
// hypercube, the CLI prints the same result bytes and the same
// simulated time as POST /v1/<name> on the same system.
func TestCLIMatchesServer(t *testing.T) {
	const (
		n    = 8
		seed = 3
	)
	sys, err := workloadSystem("random", seed, n, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	wire := make([][][]float64, sys.N())
	for i, p := range sys.Points {
		for _, c := range p.Coord {
			wire[i] = append(wire[i], append([]float64(nil), c...))
		}
	}
	h := server.New(server.Config{}).Handler()
	for _, name := range algo.Names() {
		for _, tp := range []string{"mesh", "hypercube"} {
			t.Run(name+"/"+tp, func(t *testing.T) {
				got, gotTime := cliResult(t, cliRun(t, "-algo", name, "-topo", tp,
					"-n", strconv.Itoa(n), "-seed", strconv.Itoa(seed), "-origin", "1"))

				body, err := json.Marshal(api.Request{
					V: api.Version, System: wire, Origin: 1, Dims: []float64{10, 10},
					Options: api.Options{Topology: tp},
				})
				if err != nil {
					t.Fatal(err)
				}
				w := httptest.NewRecorder()
				h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/"+name, bytes.NewReader(body)))
				if w.Code != http.StatusOK {
					t.Fatalf("POST /v1/%s: %d %s", name, w.Code, w.Body)
				}
				var resp struct {
					Stats  api.Stats       `json:"stats"`
					Result json.RawMessage `json:"result"`
				}
				if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, resp.Result) {
					t.Errorf("CLI result\n%s\nserver result\n%s", got, resp.Result)
				}
				if gotTime != resp.Stats.Time {
					t.Errorf("CLI simulated time %d, server %d", gotTime, resp.Stats.Time)
				}
			})
		}
	}
}

// TestCLIFaultsKeepAnswer: a permanent PE failure forces a remap and a
// second attempt, and the answer is the fault-free one.
func TestCLIFaultsKeepAnswer(t *testing.T) {
	args := []string{"-algo", "steady-hull", "-n", "8"}
	clean, _ := cliResult(t, cliRun(t, args...))
	report := cliRun(t, append(args, "-faults", "transient=0.05,fail=1")...)
	faulty, _ := cliResult(t, report)
	if !bytes.Equal(clean, faulty) {
		t.Errorf("fault-injected result\n%s\nclean result\n%s", faulty, clean)
	}
	m := attemptsRe.FindStringSubmatch(report)
	if m == nil {
		t.Fatalf("no fault report:\n%s", report)
	}
	if attempts, _ := strconv.Atoi(m[1]); attempts < 2 {
		t.Errorf("attempts = %d, want a recovery (≥ 2)", attempts)
	}
}

func TestCLIRejectsUnknownNames(t *testing.T) {
	for _, args := range [][]string{{"-algo", "closest"}, {"-workload", "nosuch"}, {"-topo", "ring"}} {
		if err := run(args, new(bytes.Buffer)); err == nil {
			t.Errorf("dyncg %s: no error", strings.Join(args, " "))
		}
	}
}
