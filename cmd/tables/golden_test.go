package main

import (
	"bytes"
	"flag"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// -update rewrites the golden file instead of comparing against it. Use
// after an intentional output change:
//
//	go test ./cmd/tables -run TestGoldenOutput -update
var update = flag.Bool("update", false, "rewrite tables_output.txt with the current output")

// TestGoldenOutput regenerates every figure, table, and comparison in
// the same order as a flagless `go run ./cmd/tables` and byte-compares
// the result against the committed golden file tables_output.txt. The
// whole evaluation is deterministic (fixed default seed, simulated time
// only), so any byte of drift is a real behaviour change — either a bug
// or something that belongs in a commit together with `-update`.
func TestGoldenOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("full table regeneration takes ~40s; skipped in -short mode")
	}
	if raceEnabled {
		t.Skip("full table regeneration is too slow under the race detector")
	}
	got := captureStdout(t, func() {
		figure1()
		figure2()
		figure3()
		figure4()
		table1()
		table2()
		table3()
		table4()
		comparison1()
		comparison2()
		comparison3()
		comparison4()
	})
	golden := filepath.Join("..", "..", "tables_output.txt")
	if *update {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatalf("rewriting golden: %v", err)
		}
		t.Logf("wrote %d bytes to %s", len(got), golden)
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden (run with -update to create it): %v", err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gotLines := bytes.Split(got, []byte("\n"))
	wantLines := bytes.Split(want, []byte("\n"))
	for i := 0; i < len(gotLines) || i < len(wantLines); i++ {
		var g, w []byte
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if !bytes.Equal(g, w) {
			t.Fatalf("output diverges from %s at line %d:\n got: %q\nwant: %q\n(re-run with -update if the change is intentional)",
				golden, i+1, g, w)
		}
	}
	t.Fatalf("output differs from %s (%d vs %d bytes) with no differing line — line ending drift?",
		golden, len(got), len(want))
}

// captureStdout runs f with os.Stdout redirected into a pipe and
// returns everything written. A reader goroutine drains concurrently so
// output larger than the pipe buffer cannot deadlock the writer.
func captureStdout(t *testing.T, f func()) []byte {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatalf("pipe: %v", err)
	}
	orig := os.Stdout
	os.Stdout = w
	defer func() { os.Stdout = orig }()

	done := make(chan struct{})
	var buf bytes.Buffer
	var readErr error
	go func() {
		_, readErr = io.Copy(&buf, r)
		close(done)
	}()
	f()
	os.Stdout = orig
	if err := w.Close(); err != nil {
		t.Fatalf("closing pipe: %v", err)
	}
	<-done
	if readErr != nil {
		t.Fatalf("draining pipe: %v", readErr)
	}
	return buf.Bytes()
}

// TestServedRowsRun runs every Table 2 and Table 3 row — each an
// internal/algo entry run through served — once at the table's smallest
// size on both topologies. Unlike TestGoldenOutput it runs under -short
// and -race, so a row naming an algorithm the table does not serve, or
// one its prescribed machine cannot run, fails here too.
func TestServedRowsRun(t *testing.T) {
	tables := []struct {
		name  string
		sizes []int
		rows  []row
	}{
		{"table2", table2Sizes, table2Rows()},
		{"table3", table3Sizes, table3Rows()},
	}
	for _, tb := range tables {
		n := tb.sizes[0]
		for _, rw := range tb.rows {
			for _, topo := range []string{"mesh", "hypercube"} {
				st, err := rw.run(n, topo)
				if err != nil {
					t.Errorf("%s/%s/%s n=%d: %v", tb.name, rw.id, topo, n, err)
				} else if st <= 0 {
					t.Errorf("%s/%s/%s n=%d: simulated time %d, want > 0", tb.name, rw.id, topo, n, st)
				}
			}
		}
	}
}
