package replaylog

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
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
		if _, err := seal(nil, &rec, "", 0); err != nil {
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
// records, for bodies JSON escapes (HTML characters, line separators,
// invalid UTF-8, binary request bodies), and for indented bodies.
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
		{Response: json.RawMessage(`{"f":"x<y&z>"}`)},
		{Anchor: true, Count: 3, Root: "ab12"},
		// Indented and padded bodies take the compaction pass: the
		// reversed-key, indented spelling a client may send, and a
		// body with a line separator and an HTML character in a string.
		{Method: "POST", Path: "/v1/containment-intervals", Status: 200,
			Request:  json.RawMessage("{\n  \"options\":{\"topology\":\"mesh\", \"workers\":2},\n  \"dims\":[3e+01,4e+01],\n  \"system\":[[[1e+00,0],[2e+00,0]]],\n  \"v\":1\n}"),
			Response: json.RawMessage(" [ {\"f\" : \"a\u2028b\u2029<\"} ] \n")},
		{Method: "POST", Path: "/v1/steady-hull", Status: 400,
			Meta:     api.ReplayMeta{Member: "m2"},
			Request:  json.RawMessage("\t{\"v\":1,\"system\":[]}\r\n"),
			Response: json.RawMessage(`{"v":1,"code":"bad_system","message":"empty system"}`)},
	} {
		rec.V, rec.Seq, rec.Time = api.Version, uint64(i), "2026-01-02T03:04:05Z"
		line, err := seal(nil, &rec, prev, 0)
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

// checkSeal holds seal to json.Marshal: the same line for the sealed
// record, or the same error.
func checkSeal(t *testing.T, rec api.ReplayRecord) {
	t.Helper()
	line, err := seal(nil, &rec, "ab", 0)
	want, werr := json.Marshal(&rec)
	switch {
	case (err == nil) != (werr == nil):
		t.Fatalf("seal error %v, json.Marshal error %v", err, werr)
	case err != nil:
		if err.Error() != werr.Error() {
			t.Fatalf("seal error %q, want %q", err, werr)
		}
		return
	}
	if string(line) != string(want)+"\n" {
		t.Fatalf("seal line\n %q\nwant\n %q", line, want)
	}
}

func TestSealRejectsWhatMarshalRejects(t *testing.T) {
	for _, body := range []string{"{", "[1,]", "01", "\"\\x\"", "[" + strings.Repeat("[", 300) + strings.Repeat("]", 301)} {
		checkSeal(t, api.ReplayRecord{Request: json.RawMessage(body)})
		checkSeal(t, api.ReplayRecord{Response: json.RawMessage(body)})
	}
}

// FuzzSealRecord holds the hand-written record encoding to json.Marshal
// over arbitrary string fields and raw bodies.
func FuzzSealRecord(f *testing.F) {
	f.Add("POST", "/v1/steady-hull?x=<&>", "s-1", []byte(`{"v":1,"system":[[[0],[1]]]}`), []byte(`{"result":[1,2.5e-7,null]}`), []byte(nil), 200, false)
	f.Add("", "bad utf-8 \xff\u2028", "", []byte("{\n  \"v\": 1\n}"), []byte(`"\ud800<"`), []byte{0, 0xff}, 400, false)
	f.Add("GET", "", "", []byte(nil), []byte(" [true,false,null,-0.5E+3] "), []byte(nil), 0, true)
	f.Add("POST", "/v1/x", "", []byte(`{"a":"\u00e9\u2029"}`), []byte("not json"), []byte(nil), 500, false)
	f.Fuzz(func(t *testing.T, method, path, session string, req, resp, bin []byte, status int, anchor bool) {
		rec := api.ReplayRecord{V: api.Version, Seq: uint64(len(req)), Time: method + path,
			Method: method, Path: path, Status: status,
			Meta:    api.ReplayMeta{Topology: session, PEs: status, Workers: -status, FaultSeed: int64(len(resp)), Session: session, Member: method},
			Request: req, RequestBin: bin, Response: resp,
			Anchor: anchor, Count: uint64(len(bin)), Root: session}
		checkSeal(t, rec)
		checkEmbedded(t, rec)
	})
}

// checkEmbedded holds the two ways a body reaches a record without its
// scan. verbatim never claims a body that json.Marshal would change;
// and json.Marshal's own output, which the server's response bodies
// are, sealed with both Embedded flags set, is the line json.Marshal
// writes for the record.
func checkEmbedded(t *testing.T, rec api.ReplayRecord) {
	t.Helper()
	for _, b := range [][]byte{rec.Request, rec.Response} {
		if !verbatim(b) {
			continue
		}
		if m, err := json.Marshal(json.RawMessage(b)); err != nil || !bytes.Equal(m, b) {
			t.Fatalf("verbatim claims %q, json.Marshal gives %q, %v", b, m, err)
		}
	}
	remarshal := func(b []byte) json.RawMessage {
		var v any
		if len(b) == 0 || json.Unmarshal(b, &v) != nil {
			return nil
		}
		m, err := json.Marshal(v)
		if err != nil {
			t.Fatalf("re-marshalling %q: %v", b, err)
		}
		return m
	}
	rec.Request, rec.Response = remarshal(rec.Request), remarshal(rec.Response)
	line, err := seal(nil, &rec, "ab", RequestEmbedded|ResponseEmbedded)
	if err != nil {
		t.Fatalf("seal of json.Marshal output: %v", err)
	}
	want, err := json.Marshal(&rec)
	if err != nil {
		t.Fatal(err)
	}
	if string(line) != string(want)+"\n" {
		t.Fatalf("embedded seal line\n %q\nwant\n %q", line, want)
	}
}

// TestRecordEncoderKnowsEveryField: appendRecord writes api.ReplayRecord
// by hand, so a field added to the schema must be added there too. This
// pins the fields it knows, in order.
func TestRecordEncoderKnowsEveryField(t *testing.T) {
	names := func(v any) string {
		var out []string
		rt := reflect.TypeOf(v)
		for i := 0; i < rt.NumField(); i++ {
			name, _, _ := strings.Cut(rt.Field(i).Tag.Get("json"), ",")
			out = append(out, name)
		}
		return strings.Join(out, " ")
	}
	if got, want := names(api.ReplayRecord{}), "v seq time method path status meta request request_bin response anchor count root prev hash"; got != want {
		t.Errorf("api.ReplayRecord fields are %q; appendRecord writes %q", got, want)
	}
	if got, want := names(api.ReplayMeta{}), "topology pes workers fault_seed session member"; got != want {
		t.Errorf("api.ReplayMeta fields are %q; appendMeta writes %q", got, want)
	}
}
