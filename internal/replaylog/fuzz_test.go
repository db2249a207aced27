package replaylog

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"dyncg/internal/api"
)

var updateCorpus = flag.Bool("update-corpus", false, "rewrite the committed fuzz seed corpus under testdata/fuzz")

// validSegment builds the canonical bytes of a 3-record + anchor
// segment — a healthy chain the fuzzer mutates from.
func validSegment(tb testing.TB) []byte {
	tb.Helper()
	var v verifier
	var buf bytes.Buffer
	prev := ""
	leaves := []string(nil)
	for i, rec := range []api.ReplayRecord{
		{Method: "POST", Path: "/v1/steady-hull", Status: 200,
			Request:  json.RawMessage(`{"points":[[0,0],[1,1]]}`),
			Response: json.RawMessage(`{"hull":[[0,0],[1,1]]}`)},
		{Method: "GET", Path: "/v1/sessions/s-1-abc/query", Status: 404,
			Meta:     api.ReplayMeta{Session: "s-1-abc"},
			Response: json.RawMessage(`{"error":"no session"}`)},
		{Method: "POST", Path: "/v1/collision-times", Status: 200,
			Meta:     api.ReplayMeta{Topology: "mesh", PEs: 16, Workers: 4, FaultSeed: 7},
			Response: json.RawMessage(`{"collisions":[]}`)},
	} {
		rec.V = api.Version
		rec.Seq = uint64(i)
		rec.Time = "2026-01-02T03:04:05Z"
		if _, err := seal(nil, &rec, prev, 0); err != nil {
			tb.Fatalf("seal: %v", err)
		}
		line, err := json.Marshal(&rec)
		if err != nil {
			tb.Fatalf("marshal: %v", err)
		}
		buf.Write(append(line, '\n'))
		prev = rec.Hash
		leaves = append(leaves, rec.Hash)
	}
	anchor := api.ReplayRecord{V: api.Version, Seq: 3, Time: "2026-01-02T03:04:06Z",
		Anchor: true, Count: 3, Root: MerkleRoot(leaves)}
	if _, err := seal(nil, &anchor, prev, 0); err != nil {
		tb.Fatalf("seal anchor: %v", err)
	}
	line, err := json.Marshal(&anchor)
	if err != nil {
		tb.Fatalf("marshal anchor: %v", err)
	}
	buf.Write(append(line, '\n'))
	if _, err := v.verifySegment(buf.Bytes(), "seed"); err != nil {
		tb.Fatalf("seed segment does not verify: %v", err)
	}
	return buf.Bytes()
}

// corpusSeeds are the committed seed inputs: a healthy chain, a
// truncation, a mid-chain byte flip, and structurally hostile lines.
func corpusSeeds(tb testing.TB) [][]byte {
	seed := validSegment(tb)
	tampered := append([]byte(nil), seed...)
	tampered[len(tampered)/3] ^= 0x01
	return [][]byte{
		seed,
		seed[:len(seed)/2],
		tampered,
		[]byte("{\"v\":1,\"seq\":0,\"meta\":{},\"prev\":\"\",\"hash\":\"\"}\n"),
		[]byte("not json\n{}\n"),
	}
}

// TestFuzzCorpus pins the committed seed corpus: -update-corpus
// regenerates testdata/fuzz/FuzzReplayLogDecode, and the plain run
// requires the files to be present (so the CI fuzz-smoke job always
// starts from the hostile seeds, not just from scratch).
func TestFuzzCorpus(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzReplayLogDecode")
	if *updateCorpus {
		if err := os.RemoveAll(dir); err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		for i, seed := range corpusSeeds(t) {
			body := fmt.Sprintf("go test fuzz v1\n[]byte(%s)\n", strconv.Quote(string(seed)))
			name := filepath.Join(dir, fmt.Sprintf("seed-%02d", i))
			if err := os.WriteFile(name, []byte(body), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("committed fuzz corpus missing (regenerate with -update-corpus): %v", err)
	}
	if want := len(corpusSeeds(t)); len(entries) != want {
		t.Fatalf("corpus has %d entries, want %d (regenerate with -update-corpus)", len(entries), want)
	}
}

// FuzzReplayLogDecode drives the record-parsing and chain-verification
// core over arbitrary segment bytes. Invariants: never panic; a segment
// that verifies has densely numbered records whose canonical re-encoding
// verifies again to the same records; any byte flip of a verified
// segment must not verify (spot-checked at a data-dependent position).
func FuzzReplayLogDecode(f *testing.F) {
	for _, seed := range corpusSeeds(f) {
		f.Add(seed)
	}
	f.Add([]byte(""))

	f.Fuzz(func(t *testing.T, data []byte) {
		recs, err := VerifySegment(data)
		if err != nil {
			if _, ok := err.(*TamperError); !ok {
				t.Fatalf("non-TamperError failure: %T %v", err, err)
			}
			return
		}
		var rebuilt bytes.Buffer
		for i := range recs {
			if recs[i].Seq != uint64(i) {
				t.Fatalf("verified record %d has Seq %d", i, recs[i].Seq)
			}
			if recs[i].V != api.Version {
				t.Fatalf("verified record %d has version %d", i, recs[i].V)
			}
			line, err := json.Marshal(&recs[i])
			if err != nil {
				t.Fatalf("re-encoding verified record %d: %v", i, err)
			}
			rebuilt.Write(append(line, '\n'))
		}
		again, err := VerifySegment(rebuilt.Bytes())
		if err != nil {
			t.Fatalf("canonical re-encoding failed verification: %v", err)
		}
		if len(again) != len(recs) {
			t.Fatalf("re-verification found %d records, want %d", len(again), len(recs))
		}
		if len(data) > 0 && len(recs) > 0 {
			flipped := append([]byte(nil), data...)
			flipped[int(recs[0].Hash[0])%len(flipped)] ^= 0x01
			if _, err := VerifySegment(flipped); err == nil && !bytes.Equal(flipped, data) {
				t.Fatal("flipped byte went undetected")
			}
		}
	})
}
