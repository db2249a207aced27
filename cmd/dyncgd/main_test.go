package main

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"testing"

	"dyncg/internal/fleet"
	"dyncg/internal/replaylog"
	"dyncg/internal/server"
)

func TestSplitIDs(t *testing.T) {
	if got := splitIDs(""); got != nil {
		t.Errorf("splitIDs(\"\") = %v, want nil", got)
	}
	if got, want := splitIDs(" m0, m1,,m2 "), []string{"m0", "m1", "m2"}; !reflect.DeepEqual(got, want) {
		t.Errorf("splitIDs = %v, want %v", got, want)
	}
}

// setFleetFlag points the -fleet flag at the given value for one test.
func setFleetFlag(t *testing.T, spec string) {
	t.Helper()
	old := *fleetSpec
	*fleetSpec = spec
	t.Cleanup(func() { *fleetSpec = old })
}

func TestParseFleet(t *testing.T) {
	want := []fleet.Member{{ID: "m0", URL: "http://a:1"}, {ID: "m1", URL: "http://b:2"}}

	setFleetFlag(t, " m0=http://a:1, m1=http://b:2,")
	if got, err := parseFleet(); err != nil || !reflect.DeepEqual(got, want) {
		t.Errorf("-fleet: got %v, %v; want %v", got, err, want)
	}

	setFleetFlag(t, "m0") // entry without '='
	if got, err := parseFleet(); err == nil {
		t.Errorf("parseFleet(%q) = %v, want an error", *fleetSpec, got)
	}
}

// TestRunReplay drives the replay subcommand over a log recorded by a
// server with the daemon's default front door: a pristine log replays
// byte-identically (exit 0), a missing -log-dir is a usage error (exit
// 2), and a flipped byte is refused (exit 1).
func TestRunReplay(t *testing.T) {
	dir := t.TempDir()
	rlog, err := replaylog.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(server.Config{ReplayLog: rlog, CacheBytes: server.DefaultCacheBytes, Coalesce: true})
	for _, body := range []string{
		`{"v":1,"system":[[[0,1],[0]],[[10,-1],[1]],[[3],[4]],[[5,2],[1]]]}`,
		`{"v":1,"system":[[[0,1],[0]],[[10,-1],[1]],[[3],[4]],[[5,2],[1]]]}`, // cache hit
		`{"v":1,`,
	} {
		r := httptest.NewRequest(http.MethodPost, "/v1/steady-hull", bytes.NewReader([]byte(body)))
		srv.Handler().ServeHTTP(httptest.NewRecorder(), r)
	}
	if err := rlog.Close(); err != nil {
		t.Fatal(err)
	}

	if rc := runReplay([]string{"-log-dir", dir}); rc != 0 {
		t.Fatalf("replay of a pristine log exited %d", rc)
	}
	if rc := runReplay([]string{"-log-dir", dir, "-verify-only"}); rc != 0 {
		t.Fatalf("verify-only of a pristine log exited %d", rc)
	}
	if rc := runReplay(nil); rc != 2 {
		t.Fatalf("replay without -log-dir exited %d, want 2", rc)
	}

	segs, err := replaylog.Segments(dir)
	if err != nil || len(segs) == 0 {
		t.Fatalf("Segments: %v (%d)", err, len(segs))
	}
	data, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	data[bytes.IndexByte(data, '\n')/2] ^= 0x01
	if err := os.WriteFile(segs[0], data, 0o644); err != nil {
		t.Fatal(err)
	}
	if rc := runReplay([]string{"-log-dir", dir, "-verify-only"}); rc != 1 {
		t.Fatalf("verify-only of a tampered log exited %d, want 1", rc)
	}
}
