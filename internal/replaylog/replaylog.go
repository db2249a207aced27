// Package replaylog is the deterministic-replay and audit subsystem: an
// append-only, hash-chained computation log of every served /v1/*
// request, plus verification (VerifyChain — any byte-level tampering is
// detected with the index of the first bad record) and re-execution
// (Replay — a recorded trace is re-run against a fresh serving surface
// and every response diffed byte-for-byte against the recorded one).
//
// The repo's full determinism — seeded fault plans, bit-identical
// parallel and session recompute paths — is what makes the log more than
// an audit trail: any recorded trace is a regression input, and replay
// of a production log is an exact re-derivation of every answer ever
// served (Boxer 2025 argues dynamic geometry answers should be exactly
// reproducible over time; the Dallant–Iacono lower bounds make exact
// recomputation the honest baseline to audit against).
//
// On-disk format: a directory of JSONL segments (replay-000000.log,
// replay-000001.log, …), one api.ReplayRecord per line. Records chain by
// SHA-256 (each record's Hash covers its content including the previous
// record's hash); rotation by size seals a segment with an anchor record
// carrying the Merkle root of the segment's record hashes. Open resumes
// an existing log, re-verifying the tail so a restarted daemon keeps the
// chain intact.
//
// The serving hot path pays one nil-check when logging is disabled — the
// same observer-hook discipline as internal/trace (see
// BenchmarkReplayLogAppend: the disabled path is alloc-free).
package replaylog

import (
	"crypto/sha256"
	"encoding/base64"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dyncg/internal/api"
)

// segPattern names log segments so lexicographic order is chain order.
const segPattern = "replay-%06d.log"

// DefaultMaxSegment is the rotation threshold: a segment exceeding this
// many bytes is sealed with an anchor and a new one opened.
const DefaultMaxSegment = 64 << 20

// Stats is a point-in-time snapshot of a log's counters (exported as
// dyncg_replaylog_* Prometheus metrics by the server).
type Stats struct {
	Records  uint64 // computation records appended (anchors excluded)
	Bytes    uint64 // bytes written, all segments
	Segments uint64 // segments opened
	Errors   uint64 // failed appends
}

// Log is an append-only hash-chained computation log rooted at a
// directory. Safe for concurrent use; appends are serialised, and the
// append order is the log's arrival order.
type Log struct {
	dir     string
	maxSeg  int64
	now     func() time.Time
	mu      sync.Mutex
	f       *os.File
	seg     int    // index of the open segment
	segSize int64  // bytes in the open segment
	seq     uint64 // next record's Seq
	prev    string // hash of the last written record
	leaves  []string
	line    []byte // storage of the last line written, reused by the next

	records  atomic.Uint64
	bytes    atomic.Uint64
	segments atomic.Uint64
	errors   atomic.Uint64
}

// Option configures a Log.
type Option func(*Log)

// WithMaxSegment sets the segment rotation threshold in bytes (≤ 0
// keeps DefaultMaxSegment).
func WithMaxSegment(n int64) Option {
	return func(l *Log) {
		if n > 0 {
			l.maxSeg = n
		}
	}
}

// WithNow overrides the arrival-timestamp clock (test seam: pinned
// clocks make record bytes, and therefore hashes, reproducible).
func WithNow(now func() time.Time) Option {
	return func(l *Log) { l.now = now }
}

// Open creates (or resumes) the log rooted at dir. Resuming re-verifies
// the existing chain end to end — a daemon never appends to a log it
// cannot vouch for — and continues from the last record's hash; if the
// last segment was sealed, a new segment is opened chaining from its
// anchor.
func Open(dir string, opts ...Option) (*Log, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("replaylog: %w", err)
	}
	l := &Log{dir: dir, maxSeg: DefaultMaxSegment, now: time.Now, seg: -1}
	for _, o := range opts {
		o(l)
	}

	segs, err := Segments(dir)
	if err != nil {
		return nil, err
	}
	sealed := false
	if len(segs) > 0 {
		recs, err := verifyDir(dir, segs)
		if err != nil {
			return nil, fmt.Errorf("replaylog: refusing to resume %s: %w", dir, err)
		}
		l.seg = len(segs) - 1
		l.seq = uint64(len(recs))
		if len(recs) > 0 {
			last := recs[len(recs)-1]
			l.prev = last.Hash
			sealed = last.Anchor
			for i := len(recs) - 1; i >= 0; i-- {
				if recs[i].Anchor {
					break
				}
				l.leaves = append([]string{recs[i].Hash}, l.leaves...)
			}
		}
	}

	if l.seg < 0 || sealed {
		if err := l.openSegment(l.seg + 1); err != nil {
			return nil, err
		}
	} else {
		path := filepath.Join(dir, fmt.Sprintf(segPattern, l.seg))
		f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, fmt.Errorf("replaylog: %w", err)
		}
		st, err := f.Stat()
		if err != nil {
			f.Close()
			return nil, fmt.Errorf("replaylog: %w", err)
		}
		l.f, l.segSize = f, st.Size()
		l.segments.Add(1)
	}
	return l, nil
}

// openSegment creates segment i and makes it the append target. Caller
// holds mu (or is Open).
func (l *Log) openSegment(i int) error {
	path := filepath.Join(l.dir, fmt.Sprintf(segPattern, i))
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("replaylog: %w", err)
	}
	l.f, l.seg, l.segSize = f, i, 0
	l.leaves = l.leaves[:0]
	l.segments.Add(1)
	return nil
}

// Dir returns the log's root directory.
func (l *Log) Dir() string { return l.dir }

// Stats returns a snapshot of the log's counters.
func (l *Log) Stats() Stats {
	return Stats{
		Records:  l.records.Load(),
		Bytes:    l.bytes.Load(),
		Segments: l.segments.Load(),
		Errors:   l.errors.Load(),
	}
}

// Head returns the next Seq to be assigned and the hash of the last
// written record ("" for an empty log).
func (l *Log) Head() (seq uint64, hash string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.seq, l.prev
}

// seal computes the record's chain fields — Prev, and Hash, the SHA-256
// over its canonical encoding with Hash empty — and appends its JSONL
// line to dst. The canonical encoding is json.Marshal's (appendRecord
// writes it by hand); the line is that pre-image with the hex digest,
// which JSON never escapes, spliced in before the closing `"}`, so it
// is byte-identical to encoding the sealed record again. known flags
// the bodies already embedded (see Embedded).
func seal(dst []byte, rec *api.ReplayRecord, prev string, known Embedded) ([]byte, error) {
	rec.Prev = prev
	rec.Hash = ""
	start := len(dst)
	dst, err := appendRecord(dst, rec, known)
	if err != nil {
		return nil, err
	}
	sum := sha256.Sum256(dst[start:])
	dst = hex.AppendEncode(dst[:len(dst)-len(`"}`)], sum[:])
	rec.Hash = string(dst[len(dst)-2*len(sum):])
	return append(dst, "\"}\n"...), nil
}

// Embedded flags the bodies of a record that are already in the form
// json.Marshal embeds a json.RawMessage in: compact, with <, >, &,
// U+2028 and U+2029 escaped. A flagged body is copied into the line
// without the scan that would establish this. Set a flag only for bytes
// json.Marshal itself produced, or that a scanner as strict has passed.
type Embedded uint8

const (
	RequestEmbedded  Embedded = 1 << iota // rec.Request
	ResponseEmbedded                      // rec.Response
)

// Append seals rec onto the chain (assigning Seq, Time, Prev, Hash) and
// writes it as one JSONL line, rotating the segment when it exceeds the
// size threshold. Records are appended in call order — the log's
// arrival order. rec.Request and rec.Response must each be one JSON
// value; they are stored as json.Marshal embeds a json.RawMessage, so
// an indented body is accepted and stored compacted, and a body that is
// not JSON fails the append with encoding/json's error. The line is
// written without reflection (appendRecord): a compact body with
// nothing to escape is copied as is, any other takes one compaction
// pass.
func (l *Log) Append(rec api.ReplayRecord) error { return l.AppendEmbedded(rec, 0) }

// AppendEmbedded is Append for a record whose bodies flagged in known
// are already embedded (see Embedded), so they are not scanned again.
func (l *Log) AppendEmbedded(rec api.ReplayRecord, known Embedded) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	rec.V = api.Version
	rec.Seq = l.seq
	rec.Time = l.now().UTC().Format(time.RFC3339Nano)
	rec.Anchor, rec.Count, rec.Root = false, 0, ""
	if err := l.write(&rec, known); err != nil {
		l.errors.Add(1)
		return err
	}
	l.leaves = append(l.leaves, rec.Hash)
	l.records.Add(1)
	if l.segSize >= l.maxSeg {
		if err := l.sealSegment(); err != nil {
			l.errors.Add(1)
			return err
		}
		if err := l.openSegment(l.seg + 1); err != nil {
			l.errors.Add(1)
			return err
		}
	}
	return nil
}

// maxKeptLine bounds the line storage a Log keeps between writes, so
// one outsized record does not pin its buffer for the log's lifetime.
const maxKeptLine = 64 << 10

// write seals and writes one record line to the open segment. Caller
// holds mu; rec.Seq must equal l.seq. The line is built in the storage
// of the last one when it fits: Write has copied those bytes out, and
// rec keeps none of them (Hash is a string copy).
func (l *Log) write(rec *api.ReplayRecord, known Embedded) error {
	dst := l.line[:0]
	if size := recordSize(rec); cap(dst) < size {
		dst = make([]byte, 0, size)
	}
	line, err := seal(dst, rec, l.prev, known)
	if err != nil {
		return fmt.Errorf("replaylog: sealing record %d: %w", rec.Seq, err)
	}
	if cap(line) <= maxKeptLine {
		l.line = line
	}
	if _, err := l.f.Write(line); err != nil {
		return fmt.Errorf("replaylog: appending record %d: %w", rec.Seq, err)
	}
	l.seq++
	l.prev = rec.Hash
	l.segSize += int64(len(line))
	l.bytes.Add(uint64(len(line)))
	return nil
}

// recordSize is a capacity for rec's line that its bodies, its base64
// request and the fixed fields fit in.
func recordSize(rec *api.ReplayRecord) int {
	return len(rec.Request) + len(rec.Response) + base64.StdEncoding.EncodedLen(len(rec.RequestBin)) +
		len(rec.Path) + len(rec.Meta.Session) + 384
}

// sealSegment appends the anchor record: the Merkle root over the
// segment's record hashes. Caller holds mu.
func (l *Log) sealSegment() error {
	anchor := api.ReplayRecord{
		V:      api.Version,
		Seq:    l.seq,
		Time:   l.now().UTC().Format(time.RFC3339Nano),
		Anchor: true,
		Count:  uint64(len(l.leaves)),
		Root:   MerkleRoot(l.leaves),
	}
	if err := l.write(&anchor, 0); err != nil {
		return err
	}
	if err := l.f.Close(); err != nil {
		return fmt.Errorf("replaylog: %w", err)
	}
	l.f = nil
	return nil
}

// Close seals the open segment with its anchor and closes the log. A
// closed log must not be appended to; Open the directory again to
// resume (a fresh segment chains from the anchor).
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return nil
	}
	return l.sealSegment()
}

// MerkleRoot folds the hex leaf hashes pairwise with SHA-256 up to a
// single hex root. An odd node is promoted unchanged; the root of a
// single leaf is that leaf; the root of no leaves is "".
func MerkleRoot(leaves []string) string {
	if len(leaves) == 0 {
		return ""
	}
	level := make([][]byte, 0, len(leaves))
	for _, leaf := range leaves {
		b, err := hex.DecodeString(leaf)
		if err != nil || len(b) == 0 {
			// Defensive: leaf hashes are produced by seal; treat a bad
			// one as raw bytes so the root is still deterministic.
			b = []byte(leaf)
		}
		level = append(level, b)
	}
	for len(level) > 1 {
		next := make([][]byte, 0, (len(level)+1)/2)
		for i := 0; i+1 < len(level); i += 2 {
			sum := sha256.Sum256(append(append([]byte{}, level[i]...), level[i+1]...))
			next = append(next, sum[:])
		}
		if len(level)%2 == 1 {
			next = append(next, level[len(level)-1])
		}
		level = next
	}
	return hex.EncodeToString(level[0])
}

// Segments lists dir's log segments in chain order.
func Segments(dir string) ([]string, error) {
	matches, err := filepath.Glob(filepath.Join(dir, "replay-*.log"))
	if err != nil {
		return nil, fmt.Errorf("replaylog: %w", err)
	}
	sort.Strings(matches)
	return matches, nil
}
