package replaylog

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"dyncg/internal/api"
)

// pinnedClock returns a deterministic strictly increasing clock.
func pinnedClock() func() time.Time {
	t := time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)
	return func() time.Time {
		t = t.Add(time.Millisecond)
		return t
	}
}

func mustOpen(t *testing.T, dir string, opts ...Option) *Log {
	t.Helper()
	l, err := Open(dir, opts...)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	return l
}

func appendN(t *testing.T, l *Log, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		err := l.Append(api.ReplayRecord{
			Method:   "POST",
			Path:     "/v1/steady-hull",
			Status:   200,
			Meta:     api.ReplayMeta{Topology: "mesh", PEs: 16},
			Request:  json.RawMessage(`{"points":[[0,0],[1,1]]}`),
			Response: json.RawMessage(`{"hull":[[0,0],[1,1]]}`),
		})
		if err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
}

func TestAppendCloseVerify(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir, WithNow(pinnedClock()))
	appendN(t, l, 5)
	if seq, hash := l.Head(); seq != 5 || hash == "" {
		t.Fatalf("Head() = (%d, %q), want (5, non-empty)", seq, hash)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	st := l.Stats()
	if st.Records != 5 || st.Segments != 1 || st.Errors != 0 || st.Bytes == 0 {
		t.Fatalf("Stats() = %+v", st)
	}

	n, err := VerifyChain(dir)
	if err != nil {
		t.Fatalf("VerifyChain: %v", err)
	}
	if n != 6 { // 5 records + 1 anchor
		t.Fatalf("VerifyChain verified %d records, want 6", n)
	}
	recs, err := ReadDir(dir)
	if err != nil {
		t.Fatalf("ReadDir: %v", err)
	}
	last := recs[len(recs)-1]
	if !last.Anchor || last.Count != 5 || last.Root == "" {
		t.Fatalf("final record is not a 5-leaf anchor: %+v", last)
	}
	for i, rec := range recs {
		if rec.Seq != uint64(i) {
			t.Fatalf("record %d has Seq %d", i, rec.Seq)
		}
	}
}

func TestRotationAndResume(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir, WithNow(pinnedClock()), WithMaxSegment(1))
	appendN(t, l, 3) // rotation after every record
	segs, err := Segments(dir)
	if err != nil {
		t.Fatalf("Segments: %v", err)
	}
	if len(segs) != 4 { // 3 sealed + 1 open
		t.Fatalf("got %d segments, want 4: %v", len(segs), segs)
	}

	// Resume without closing: the open (unsealed) segment is continued.
	l2 := mustOpen(t, dir, WithNow(pinnedClock()), WithMaxSegment(1))
	appendN(t, l2, 2)
	if err := l2.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// Resume after a clean close: a new segment chains from the anchor.
	l3 := mustOpen(t, dir, WithNow(pinnedClock()))
	appendN(t, l3, 1)
	if err := l3.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	recs, err := ReadDir(dir)
	if err != nil {
		t.Fatalf("ReadDir after resume: %v", err)
	}
	var comps, anchors int
	for _, rec := range recs {
		if rec.Anchor {
			anchors++
		} else {
			comps++
		}
	}
	if comps != 6 {
		t.Fatalf("got %d computation records, want 6", comps)
	}
	if anchors < 4 {
		t.Fatalf("got %d anchors, want at least 4", anchors)
	}
}

func TestOpenRefusesTamperedLog(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir, WithNow(pinnedClock()))
	appendN(t, l, 2)
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	flipByteInRecord(t, dir, 1)
	if _, err := Open(dir); err == nil {
		t.Fatal("Open resumed a tampered log")
	}
}

// flipByteInRecord flips one payload byte of record seq in its segment.
func flipByteInRecord(t *testing.T, dir string, seq int) {
	t.Helper()
	segs, err := Segments(dir)
	if err != nil || len(segs) == 0 {
		t.Fatalf("Segments: %v (%d)", err, len(segs))
	}
	line := 0
	for _, seg := range segs {
		data, err := os.ReadFile(seg)
		if err != nil {
			t.Fatalf("ReadFile: %v", err)
		}
		lines := bytes.Split(bytes.TrimSuffix(data, []byte("\n")), []byte("\n"))
		for i := range lines {
			if line == seq {
				// Flip a byte inside the path value, away from JSON
				// structure, so only the hash check can catch it.
				k := bytes.Index(lines[i], []byte("/v1/"))
				if k < 0 {
					k = len(lines[i]) / 2
				}
				lines[i][k+1] ^= 0x01
				out := append(bytes.Join(lines, []byte("\n")), '\n')
				if err := os.WriteFile(seg, out, 0o644); err != nil {
					t.Fatalf("WriteFile: %v", err)
				}
				return
			}
			line++
		}
	}
	t.Fatalf("record %d not found", seq)
}

func TestVerifyChainDetectsEveryFlippedByte(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir, WithNow(pinnedClock()))
	appendN(t, l, 3)
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	segs, _ := Segments(dir)
	orig, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	// Every single-byte flip anywhere in the segment must be detected.
	for pos := 0; pos < len(orig); pos++ {
		data := append([]byte(nil), orig...)
		data[pos] ^= 0x01
		if _, err := VerifySegment(data); err == nil {
			t.Fatalf("flip at byte %d (%q) went undetected", pos, orig[pos])
		}
	}
	if _, err := VerifySegment(orig); err != nil {
		t.Fatalf("pristine segment failed verification: %v", err)
	}
}

func TestTamperErrorReportsFirstBadRecord(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir, WithNow(pinnedClock()))
	appendN(t, l, 4)
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	flipByteInRecord(t, dir, 2)
	n, err := VerifyChain(dir)
	if err == nil {
		t.Fatal("VerifyChain passed a tampered log")
	}
	var te *TamperError
	if !errors.As(err, &te) {
		t.Fatalf("error is %T, want *TamperError: %v", err, err)
	}
	if te.Seq != 2 {
		t.Fatalf("TamperError.Seq = %d, want 2", te.Seq)
	}
	if n != 2 {
		t.Fatalf("VerifyChain verified %d records before failing, want 2", n)
	}
	if !strings.Contains(te.Error(), "record 2") {
		t.Fatalf("TamperError.Error() = %q", te.Error())
	}
}

func TestVerifyChainDetectsDroppedRecord(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir, WithNow(pinnedClock()))
	appendN(t, l, 4)
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	segs, _ := Segments(dir)
	data, _ := os.ReadFile(segs[0])
	lines := bytes.SplitAfter(data, []byte("\n"))
	out := append(append([]byte(nil), bytes.Join(lines[:1], nil)...), bytes.Join(lines[2:], nil)...)
	if err := os.WriteFile(segs[0], out, 0o644); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	if _, err := VerifyChain(dir); err == nil {
		t.Fatal("VerifyChain passed a log with a dropped record")
	}
}

func TestVerifyChainEmptyDir(t *testing.T) {
	if _, err := VerifyChain(t.TempDir()); err == nil {
		t.Fatal("VerifyChain passed an empty directory")
	}
}

func TestDir(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir)
	defer l.Close()
	if l.Dir() != dir {
		t.Fatalf("Dir() = %q, want %q", l.Dir(), dir)
	}
}

func TestOpenPathIsFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "not-a-dir")
	if err := os.WriteFile(path, []byte("x"), 0o644); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	if _, err := Open(path); err == nil {
		t.Fatal("Open accepted a regular file as the log directory")
	}
}

func TestMerkleRoot(t *testing.T) {
	h := func(s string) string {
		rec := api.ReplayRecord{Path: s}
		if _, err := seal(&rec, ""); err != nil {
			t.Fatalf("seal: %v", err)
		}
		return rec.Hash
	}
	a, b, c := h("a"), h("b"), h("c")
	if got := MerkleRoot(nil); got != "" {
		t.Fatalf("MerkleRoot(nil) = %q, want empty", got)
	}
	if got := MerkleRoot([]string{a}); got != a {
		t.Fatalf("MerkleRoot of one leaf = %q, want the leaf", got)
	}
	ab := MerkleRoot([]string{a, b})
	if ab == a || ab == b || ab == "" {
		t.Fatalf("MerkleRoot(a,b) = %q", ab)
	}
	if got := MerkleRoot([]string{a, b}); got != ab {
		t.Fatal("MerkleRoot is not deterministic")
	}
	if got := MerkleRoot([]string{b, a}); got == ab {
		t.Fatal("MerkleRoot ignores leaf order")
	}
	// Odd leaf promotion: root(a,b,c) = fold(root(a,b), c).
	abc := MerkleRoot([]string{a, b, c})
	if want := MerkleRoot([]string{ab, c}); abc != want {
		t.Fatalf("MerkleRoot(a,b,c) = %q, want %q", abc, want)
	}
}

func TestWriteToClosedLogErrors(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir)
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := l.Close(); err != nil { // idempotent
		t.Fatalf("second Close: %v", err)
	}
	if err := l.Append(api.ReplayRecord{Path: "/v1/x"}); err == nil {
		t.Fatal("Append to a closed log succeeded")
	}
	if st := l.Stats(); st.Errors == 0 {
		t.Fatal("failed append not counted in Stats().Errors")
	}
}

// TestSealLineMatchesMarshal: the line seal splices together is the
// sealed record encoded again, byte for byte — for plain and anchor
// records, and for bodies JSON escapes (HTML characters, line
// separators, invalid UTF-8, binary request bodies).
func TestSealLineMatchesMarshal(t *testing.T) {
	prev := ""
	for i, rec := range []api.ReplayRecord{
		{},
		{Method: "POST", Path: "/v1/steady-hull?x=<&>", Status: 200,
			Meta:     api.ReplayMeta{Topology: "mesh", PEs: 16, Workers: 2, FaultSeed: -3, Session: "s-1"},
			Request:  json.RawMessage(`{"v":1,"note":"<a&b> "}`),
			Response: json.RawMessage(`{"result":[1,2.5e-7,null]}`)},
		{Method: "POST", Path: "/v1/collision-times", Status: 400,
			RequestBin: []byte{0, 0xff, '"', '\\', '\n'}},
		{Path: "bad utf-8 \xff\xfe", Response: json.RawMessage(`"\ud800"`)},
		{Anchor: true, Count: 3, Root: "ab12"},
	} {
		rec.V, rec.Seq, rec.Time = api.Version, uint64(i), "2026-01-02T03:04:05Z"
		line, err := seal(&rec, prev)
		if err != nil {
			t.Fatalf("record %d: seal: %v", i, err)
		}
		want, err := json.Marshal(&rec)
		if err != nil {
			t.Fatalf("record %d: marshal: %v", i, err)
		}
		if string(line) != string(want)+"\n" {
			t.Fatalf("record %d: seal line\n %s\nwant\n %s", i, line, want)
		}
		prev = rec.Hash
	}
}
