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

// ReadBody reads the request body under the maxBody cap. On failure it
// returns the bytes read so far (the replay record keeps them), the
// status — 413 past the cap, 400 otherwise — and the error that words
// the bad_request envelope. status is 0 on success.
func ReadBody(w http.ResponseWriter, r *http.Request, maxBody int64) ([]byte, int, error) {
	r.Body = http.MaxBytesReader(w, r.Body, maxBody)
	raw, err := io.ReadAll(r.Body)
	if err == nil {
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
		res.Key, _ = canon.Key(algorithm, string(tp), res.Workers, req)
	}
	return res, nil
}

// Response is a value the Stage can cache: its HTTP status and its wire
// bytes without the trailing newline.
type Response interface {
	Wire() (status int, body []byte)
}

// Stage deduplicates one-shot requests by canonical key: a cache read,
// then one computation per key in flight, then a cache write of 200
// responses. With no cache and coalescing off it is a pass-through.
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

// Do serves one request under key (empty = uncacheable, computed
// directly). readCache false skips the cache read: the daemon's drain
// gate, which sends even cached answers to admission. hit wraps cached
// bytes into a response. Do calls Wire on compute's result before the
// cache or any coalesced follower sees it, so a result that encodes
// itself lazily is encoded once, by its leader. The returned source is
// one of the Source values; err is compute's error or, for a coalesced
// follower, its own ctx's expiry while the leader still runs, or
// coalesce.ErrLeaderPanicked when the leader's compute panicked.
func (s *Stage[V]) Do(ctx context.Context, key string, readCache bool, hit func(body []byte) V, compute func() (V, error)) (V, string, error) {
	if key == "" || (s.rc == nil && s.cg == nil) {
		v, err := compute()
		return v, SourceComputed, err
	}
	if readCache {
		if body, ok := s.rc.Get(key); ok {
			return hit(body), SourceCache, nil
		}
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

// Send writes one JSON response — the body, then the newline a
// json.Encoder ends with — and, when the log is on, appends its replay
// record: the request as raw JSON, or as base64 when the body is not
// JSON, so a rejected body is recorded byte-exact. rawJSON says raw is
// already known to be JSON because it decoded, which spares the
// json.Valid scan. body is never modified. Log.Append serialises
// concurrent appends itself.
func (rc Recorder) Send(w http.ResponseWriter, r *http.Request, status int, body, raw []byte, rawJSON bool, meta api.ReplayMeta) {
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
	switch {
	case len(raw) == 0:
	case rawJSON || json.Valid(raw):
		rec.Request = raw
	default:
		rec.RequestBin = raw
	}
	if err := rc.Log.Append(rec); err != nil {
		rc.Logger.LogAttrs(r.Context(), slog.LevelError, "replaylog",
			slog.String("error", err.Error()))
	}
}
