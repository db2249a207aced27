// Command dyncgd is the batch-serving daemon: a long-running HTTP server
// exposing every algorithm of the dyncg facade as POST /v1/<algorithm>
// with the versioned JSON schema of internal/api, backed by a pool of
// pre-warmed simulated machines (internal/server).
//
//	dyncgd -addr :8080
//
//	curl -s localhost:8080/healthz
//	curl -s -X POST localhost:8080/v1/closest-point-sequence -d '{
//	  "v": 1,
//	  "system": [[[0,1],[0]], [[10,-1],[1]]],
//	  "origin": 0,
//	  "options": {"topology": "hypercube"}
//	}'
//
// Stateful scenario sessions pin a warm machine across requests and
// apply trajectory deltas, answered by one envelope pass per batch:
//
//	curl -s -X POST localhost:8080/v1/sessions -d '{...}'         # create
//	curl -s -X POST localhost:8080/v1/sessions/{id}/update -d ...  # batch deltas
//	curl -s localhost:8080/v1/sessions/{id}/query                  # maintained answer
//	curl -s -X DELETE localhost:8080/v1/sessions/{id}              # release machine
//
// -max-sessions caps concurrently live sessions; -session-ttl evicts
// idle ones (their machines return to the warm pool).
//
// Operational endpoints: GET /healthz (200 while serving, 503 while
// draining) and GET /metrics (Prometheus text format: per-algorithm
// request counts and latency histograms, pool hit/miss/eviction
// counters, queue depth, session gauges and update latency). On
// SIGINT/SIGTERM the daemon drains: health flips to 503, new requests
// are rejected, and in-flight requests get -drain-timeout to finish.
//
// With -log-dir the daemon records every served /v1/* request and
// response into an append-only hash-chained computation log
// (internal/replaylog), rotated by -log-max-bytes and sealed with a
// Merkle anchor per segment. The companion subcommand
//
//	dyncgd replay -log-dir DIR [-from N] [-to N] [-ignore-pool]
//
// verifies the chain (any flipped byte is reported with the index of
// the first bad record) and re-executes the log against a fresh
// in-process server, diffing every response byte-for-byte; it exits
// non-zero on tampering or on the first divergent record.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"dyncg/internal/fleet"
	"dyncg/internal/replaylog"
	"dyncg/internal/server"
)

var (
	addr         = flag.String("addr", ":8080", "listen address")
	poolCap      = flag.Int("pool-cap", 32, "max idle machines retained across size classes (negative disables pooling)")
	poolMaxPEs   = flag.Int("pool-max-pes", 0, "max total PEs across idle pooled machines, the memory bound at large n (0 = 2^22, negative = unbounded)")
	maxInflight  = flag.Int("max-inflight", 0, "max concurrently executing requests (0 = GOMAXPROCS)")
	maxQueue     = flag.Int("queue", 0, "max requests waiting for an execution slot (0 = 4x max-inflight)")
	deadline     = flag.Duration("deadline", 30*time.Second, "default per-request deadline, queueing included")
	drainTimeout = flag.Duration("drain-timeout", 10*time.Second, "grace period for in-flight requests on shutdown")
	maxSessions  = flag.Int("max-sessions", 0, "max concurrently live scenario sessions (0 = 64, negative = unbounded)")
	sessionTTL   = flag.Duration("session-ttl", 0, "evict sessions idle longer than this (0 = 15m, negative disables eviction)")
	logFormat    = flag.String("log", "json", "request log format: json|text")
	logDir       = flag.String("log-dir", "", "record every /v1/* request into a hash-chained replay log under this directory (empty disables)")
	logMaxBytes  = flag.Int64("log-max-bytes", replaylog.DefaultMaxSegment, "replay-log segment rotation threshold in bytes")
	rcacheBytes  = flag.Int64("rcache-bytes", server.DefaultCacheBytes, "response cache budget in bytes (0 disables)")
	coalesce     = flag.Bool("coalesce", true, "merge identical in-flight requests into one computation")
	fleetSpec    = flag.String("fleet", "", "run as a fleet front door over these workers: comma-separated id=url pairs (m0=http://127.0.0.1:9101,...)")
	memberID     = flag.String("member-id", "", "this worker's fleet member ID: stamped on responses, salted into session IDs")
	fleetIDs     = flag.String("fleet-ids", "", "comma-separated IDs of every fleet member (workers mint session IDs that hash home to -member-id on this roster)")
	probeEvery   = flag.Duration("probe-interval", time.Second, "front-door health-probe period (fleet mode)")
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "replay" {
		os.Exit(runReplay(os.Args[2:]))
	}
	flag.Parse()

	var handler slog.Handler
	switch *logFormat {
	case "json":
		handler = slog.NewJSONHandler(os.Stderr, nil)
	case "text":
		handler = slog.NewTextHandler(os.Stderr, nil)
	default:
		fmt.Fprintf(os.Stderr, "dyncgd: unknown -log format %q (want json|text)\n", *logFormat)
		os.Exit(2)
	}
	log := slog.New(handler)

	var rlog *replaylog.Log
	if *logDir != "" {
		var err error
		rlog, err = replaylog.Open(*logDir, replaylog.WithMaxSegment(*logMaxBytes))
		if err != nil {
			fmt.Fprintf(os.Stderr, "dyncgd: %v\n", err)
			os.Exit(1)
		}
		seq, head := rlog.Head()
		log.Info("replay log open", "dir", *logDir, "next_seq", seq, "head", head)
	}

	if *fleetSpec != "" {
		os.Exit(runFrontDoor(log, rlog))
	}

	srv := server.New(server.Config{
		MemberID:    *memberID,
		FleetIDs:    splitIDs(*fleetIDs),
		PoolCap:     *poolCap,
		PoolMaxPEs:  *poolMaxPEs,
		MaxInFlight: *maxInflight,
		MaxQueue:    *maxQueue,
		Deadline:    *deadline,
		MaxSessions: *maxSessions,
		SessionTTL:  *sessionTTL,
		Logger:      log,
		ReplayLog:   rlog,
		CacheBytes:  *rcacheBytes,
		Coalesce:    *coalesce,
	})
	hs := &http.Server{Addr: *addr, Handler: srv.Handler()}

	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	log.Info("dyncgd listening", "addr", *addr, "pool_cap", *poolCap,
		"rcache_bytes", *rcacheBytes, "coalesce", *coalesce)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)

	select {
	case err := <-errc:
		log.Error("listen failed", "err", err)
		os.Exit(1)
	case got := <-sig:
		log.Info("draining", "signal", got.String(), "in_flight", srv.InFlight())
	}

	// Graceful drain: reject new work, give in-flight requests the grace
	// period, then force-close whatever is left.
	srv.SetDraining(true)
	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := hs.Shutdown(ctx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Warn("forced shutdown after drain timeout", "err", err)
		hs.Close()
		os.Exit(1)
	}
	if rlog != nil {
		// Seal the open segment after the drain so the log ends on an
		// anchor; a restart resumes the chain from it.
		if err := rlog.Close(); err != nil {
			log.Warn("replay log close failed", "err", err)
			os.Exit(1)
		}
	}
	log.Info("stopped")
}

// splitIDs parses a comma-separated ID roster, dropping empties.
func splitIDs(s string) []string {
	if s == "" {
		return nil
	}
	var ids []string
	for _, id := range strings.Split(s, ",") {
		if id = strings.TrimSpace(id); id != "" {
			ids = append(ids, id)
		}
	}
	return ids
}

// parseFleet resolves the fleet roster from -fleet (id=url pairs).
func parseFleet() ([]fleet.Member, error) {
	var members []fleet.Member
	for _, pair := range strings.Split(*fleetSpec, ",") {
		pair = strings.TrimSpace(pair)
		if pair == "" {
			continue
		}
		id, url, ok := strings.Cut(pair, "=")
		if !ok {
			return nil, fmt.Errorf("-fleet entry %q is not id=url", pair)
		}
		members = append(members, fleet.Member{ID: id, URL: url})
	}
	return members, nil
}

// runFrontDoor serves fleet mode: the consistent-hash front door over
// the worker roster, with the response cache, coalescer, and replay
// log held here — fleet-wide — instead of per worker.
func runFrontDoor(log *slog.Logger, rlog *replaylog.Log) int {
	members, err := parseFleet()
	if err != nil {
		fmt.Fprintf(os.Stderr, "dyncgd: %v\n", err)
		return 2
	}
	fd, err := fleet.New(fleet.Config{
		Members:       members,
		Deadline:      *deadline,
		ProbeInterval: *probeEvery,
		CacheBytes:    *rcacheBytes,
		Coalesce:      *coalesce,
		Logger:        log,
		ReplayLog:     rlog,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "dyncgd: %v\n", err)
		return 2
	}
	fd.Start()
	hs := &http.Server{Addr: *addr, Handler: fd.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	log.Info("dyncgd front door listening", "addr", *addr,
		"members", len(members), "rcache_bytes", *rcacheBytes, "coalesce", *coalesce)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		log.Error("listen failed", "err", err)
		return 1
	case got := <-sig:
		log.Info("shutting down", "signal", got.String())
	}
	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := hs.Shutdown(ctx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Warn("forced shutdown after drain timeout", "err", err)
		hs.Close()
		return 1
	}
	fd.Close()
	if rlog != nil {
		if err := rlog.Close(); err != nil {
			log.Warn("replay log close failed", "err", err)
			return 1
		}
	}
	log.Info("stopped")
	return 0
}

// runReplay is the `dyncgd replay` subcommand: verify the chain and
// re-execute the log against a fresh in-process server.
func runReplay(args []string) int {
	fs := flag.NewFlagSet("dyncgd replay", flag.ExitOnError)
	var (
		dir        = fs.String("log-dir", "", "replay log directory (required)")
		from       = fs.Uint64("from", 0, "first record Seq to replay")
		to         = fs.Uint64("to", 0, "last record Seq to replay (0 = end of log)")
		poolCap    = fs.Int("pool-cap", 32, "pool capacity of the replay server (match the recording daemon)")
		ignorePool = fs.Bool("ignore-pool", false, "mask pool checkout info before diffing (for traces recorded under concurrent traffic)")
		cacheBytes = fs.Int64("rcache-bytes", server.DefaultCacheBytes, "response cache budget of the replay server (match the recording daemon: a cached repeat only re-derives identical bytes if replay caches too)")
		verifyOnly = fs.Bool("verify-only", false, "verify the hash chain and exit without re-executing")
	)
	fs.Parse(args)
	if *dir == "" {
		fmt.Fprintln(os.Stderr, "dyncgd replay: -log-dir is required")
		return 2
	}

	recs, err := replaylog.ReadDir(*dir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dyncgd replay: chain verification failed: %v\n", err)
		return 1
	}
	fmt.Printf("verified %d records (chain intact)\n", len(recs))
	if *verifyOnly {
		return 0
	}

	// No coalescing: replay serves one record at a time, so no two
	// requests are ever in flight together.
	srv := server.New(server.Config{
		PoolCap:    *poolCap,
		CacheBytes: *cacheBytes,
	})
	end := *to
	if end == 0 {
		end = ^uint64(0)
	}
	opts := []replaylog.ReplayOption{replaylog.WithRange(*from, end)}
	if *ignorePool {
		opts = append(opts, replaylog.WithIgnorePool())
	}
	rep, err := replaylog.Replay(srv.Handler(), recs, opts...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dyncgd replay: %v\n", err)
		return 1
	}
	fmt.Printf("replayed %d requests (%d skipped as admission artifacts, %d anchors)\n",
		rep.Replayed, rep.Skipped, rep.Anchors)
	if rep.Diverged != nil {
		fmt.Fprintf(os.Stderr, "dyncgd replay: divergence at %s\n", rep.Diverged)
		return 1
	}
	fmt.Println("all responses byte-identical")
	return 0
}
