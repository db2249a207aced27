// Package front is the front-door stage both serving front doors share:
// the standalone daemon (internal/server) and the fleet front door
// (internal/fleet). It owns every decision a request meets before and
// after the computation:
//
//   - ReadBody reads the body under the size cap and words the
//     400/413 bad_request failure.
//   - Resolve applies the topology default and the worker
//     normalisation the computing process will apply, then computes the
//     canonical hash (internal/canon).
//   - Stage deduplicates by that hash: response-cache read
//     (internal/rcache), one computation per key in flight
//     (internal/coalesce), cache write of 200 responses.
//   - Recorder writes the response bytes and appends the replay record
//     (internal/replaylog).
//
// One copy of each decision keeps the two doors from drifting apart: a
// request resolves to the same key whichever door it enters, or to no
// key where the door cannot know what the computing process will do.
package front

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"

	"dyncg/internal/api"
	"dyncg/internal/canon"
	"dyncg/internal/coalesce"
	"dyncg/internal/rcache"
	"dyncg/internal/replaylog"
	"dyncg/internal/topo"
)

// The values of the X-Dyncg-Source response header: how a one-shot
// response was produced.
const (
	SourceComputed  = "computed"  // this request ran the computation
	SourceCoalesced = "coalesced" // merged into another caller's in-flight computation
	SourceCache     = "cache"     // served from the response cache
)

// maxPresize bounds the buffer ReadBody sizes from a request's
// Content-Length before any of the body has arrived: a client's claim
// buys at most this much memory up front, and a longer body grows the
// buffer as its bytes are read.
const maxPresize = 64 << 10

// ReadBody reads the request body under the maxBody cap. On failure it
// returns the bytes read so far (the replay record keeps them), the
// status — 413 past the cap, 400 otherwise — and the error that words
// the bad_request envelope. status is 0 on success. The buffer starts
// at the declared Content-Length, up to maxPresize, with a byte to
// spare for the read that meets the end, so a body of declared length
// is read without regrowing.
func ReadBody(w http.ResponseWriter, r *http.Request, maxBody int64) ([]byte, int, error) {
	r.Body = http.MaxBytesReader(w, r.Body, maxBody)
	size := int64(512)
	if cl := r.ContentLength; cl > 0 {
		size = min(cl, maxPresize) + 1
	}
	raw := make([]byte, 0, size)
	var err error
	for err == nil {
		if len(raw) == cap(raw) {
			raw = append(raw, 0)[:len(raw)]
		}
		var n int
		n, err = r.Body.Read(raw[len(raw):cap(raw)])
		raw = raw[:len(raw)+n]
	}
	if err == io.EOF {
		return raw, 0, nil
	}
	st := http.StatusBadRequest
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		st = http.StatusRequestEntityTooLarge
	}
	return raw, st, fmt.Errorf("server: decoding request: %w", err)
}

// Topology resolves options.topology: empty means hypercube.
func Topology(name string) (topo.Topology, error) {
	if name == "" {
		name = string(topo.Hypercube)
	}
	return topo.Parse(name)
}

// Workers resolves options.workers to the worker count the machine
// runs with, which keys both the warm pool and the canonical hash: a
// negative count means procs (GOMAXPROCS of the computing process), and
// anything below 1 is serial, 1. procs 0 means the caller does not
// compute and cannot know that count; Workers then returns 0 for a
// negative count.
func Workers(requested, procs int) int {
	if requested < 0 {
		if procs == 0 {
			return 0
		}
		requested = procs
	}
	return max(requested, 1)
}

// Resolved is a one-shot request resolved the way the computing process
// resolves it.
type Resolved struct {
	Topology topo.Topology
	// Workers is the resolved worker count (≥ 1), or 0 when only the
	// computing process can resolve it (see Workers).
	Workers int
	// Key is the canonical hash that keys the cache and the coalescer,
	// or empty when the request is uncacheable: faults are injected, or
	// Workers is unknown.
	Key string
	// Shape is the system's shape, read off the hash's pass (zero when
	// Key is empty). It sizes a cache hit's machine report without the
	// system being built.
	Shape canon.Shape
}

// Resolve resolves req for algorithm (the URL path element). procs is
// as for Workers. The error is the topology parse failure, answered as
// bad_topology.
func Resolve(algorithm string, req *api.Request, procs int) (Resolved, error) {
	tp, err := Topology(req.Options.Topology)
	if err != nil {
		return Resolved{}, err
	}
	res := Resolved{Topology: tp, Workers: Workers(req.Options.Workers, procs)}
	if res.Workers > 0 {
		res.Key, res.Shape, _ = canon.KeyShape(algorithm, string(tp), res.Workers, req)
	}
	return res, nil
}

// Response is a value the Stage can cache: its HTTP status and its wire
// bytes without the trailing newline.
type Response interface {
	Wire() (status int, body []byte)
}

// Stage deduplicates one-shot requests by canonical key: a cache read
// (Get), then, for a request the cache did not answer, one computation
// per key in flight and a cache write of 200 responses (Do). A door
// calls Get as soon as it has the key, so a hit does none of the work
// only a computation needs, and Do on a miss. With no cache and
// coalescing off it is a pass-through.
type Stage[V Response] struct {
	rc *rcache.Cache      // nil when caching is disabled
	cg *coalesce.Group[V] // nil when coalescing is disabled
}

// NewStage returns a stage over rc (nil disables caching) that
// coalesces identical in-flight requests when coalescing is set.
func NewStage[V Response](rc *rcache.Cache, coalescing bool) *Stage[V] {
	s := &Stage[V]{rc: rc}
	if coalescing {
		s.cg = coalesce.New[V]()
	}
	return s
}

// Merged returns how many requests joined another caller's in-flight
// computation (0 when coalescing is disabled).
func (s *Stage[V]) Merged() int64 {
	if s.cg == nil {
		return 0
	}
	return s.cg.Merged()
}

// Get returns the cached response bytes of key. An uncacheable request
// (empty key) or a disabled cache misses without touching the cache's
// counters; every other call counts one hit or one miss.
func (s *Stage[V]) Get(key string) ([]byte, bool) {
	if key == "" {
		return nil, false
	}
	return s.rc.Get(key)
}

// Do serves one request under key (empty = uncacheable, computed
// directly) that Get did not answer: it joins an identical in-flight
// computation or leads one, and caches a 200 result. Do calls Wire on
// compute's result before the cache or any coalesced follower sees it,
// so a result that encodes itself lazily is encoded once, by its
// leader. The returned source is SourceComputed or SourceCoalesced; err
// is compute's error or, for a coalesced follower, its own ctx's expiry
// while the leader still runs, or coalesce.ErrLeaderPanicked when the
// leader's compute panicked.
func (s *Stage[V]) Do(ctx context.Context, key string, compute func() (V, error)) (V, string, error) {
	if key == "" || (s.rc == nil && s.cg == nil) {
		v, err := compute()
		return v, SourceComputed, err
	}
	fill := func() (V, error) {
		v, err := compute()
		if err == nil {
			if status, body := v.Wire(); status == http.StatusOK {
				s.rc.Put(key, body)
			}
		}
		return v, err
	}
	if s.cg == nil {
		v, err := fill()
		return v, SourceComputed, err
	}
	led := false
	v, _, err := s.cg.Do(ctx, key, func() (V, error) {
		led = true
		return fill()
	})
	if !led {
		return v, SourceCoalesced, err
	}
	return v, SourceComputed, err
}

// newline is written after the body rather than appended to it:
// cached and coalesced bodies are shared, and appending would race on
// their backing array.
var newline = []byte("\n")

// Recorder writes responses and appends their replay records.
type Recorder struct {
	Log    *replaylog.Log // nil disables recording
	Logger *slog.Logger   // receives append failures
}

// Known flags what the caller of Send already knows of the bytes it
// records, so the replay record does not scan them again.
type Known uint8

const (
	// RawJSON: raw decoded, so it is JSON (no json.Valid scan).
	RawJSON Known = 1 << iota
	// RawEmbedded: raw is also already as json.Marshal embeds it
	// (api.DecodeRequest's verbatim). It implies RawJSON.
	RawEmbedded
	// BodyEmbedded: body is json.Marshal's own output.
	BodyEmbedded
)

// Send writes one JSON response — the body, then the newline a
// json.Encoder ends with — and, when the log is on, appends its replay
// record: the request as raw JSON, or as base64 when the body is not
// JSON, so a rejected body is recorded byte-exact. known spares the
// record the scans whose answers the caller already has. body is never
// modified. Log.Append serialises concurrent appends itself.
func (rc Recorder) Send(w http.ResponseWriter, r *http.Request, status int, body, raw []byte, known Known, meta api.ReplayMeta) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(body)
	w.Write(newline)
	if rc.Log == nil {
		return
	}
	rec := api.ReplayRecord{
		Method:   r.Method,
		Path:     r.URL.RequestURI(),
		Status:   status,
		Meta:     meta,
		Response: body,
	}
	var embedded replaylog.Embedded
	if known&BodyEmbedded != 0 {
		embedded |= replaylog.ResponseEmbedded
	}
	switch {
	case len(raw) == 0:
	case known&RawEmbedded != 0:
		rec.Request = raw
		embedded |= replaylog.RequestEmbedded
	case known&RawJSON != 0 || json.Valid(raw):
		rec.Request = raw
	default:
		rec.RequestBin = raw
	}
	if err := rc.Log.AppendEmbedded(rec, embedded); err != nil {
		rc.Logger.LogAttrs(r.Context(), slog.LevelError, "replaylog",
			slog.String("error", err.Error()))
	}
}
