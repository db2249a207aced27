package dyncg

// The deterministic-replay facade over internal/replaylog: a dyncgd
// daemon started with -log-dir records every /v1/* request and response
// into an append-only hash-chained computation log, and this entry
// point re-derives every answer the log holds against a fresh
// in-process server, diffing each response byte-for-byte. See the
// `dyncgd replay` subcommand for the CLI form.

import (
	"dyncg/internal/replaylog"
	"dyncg/internal/server"
)

// ReplayReport summarises one replay run (see replaylog.Report).
type ReplayReport = replaylog.Report

// ReplayDivergence pinpoints the first replayed response that differed
// from the recorded one.
type ReplayDivergence = replaylog.Divergence

// ReplayOption configures Replay.
type ReplayOption = replaylog.ReplayOption

// ReplayRange replays only records with from ≤ Seq ≤ to (to < from
// means no upper bound).
func ReplayRange(from, to uint64) ReplayOption { return replaylog.WithRange(from, to) }

// ReplayIgnorePool masks pool checkout info before diffing — for traces
// recorded under concurrent traffic, where pool hits interleave
// nondeterministically.
func ReplayIgnorePool() ReplayOption { return replaylog.WithIgnorePool() }

// ReplayTamperError is the verification failure type: the index of the
// first bad record and why it failed.
type ReplayTamperError = replaylog.TamperError

// Replay verifies the hash-chained computation log under dir (refusing
// a tampered log with a *ReplayTamperError) and re-executes every
// recorded request, in log order, against a fresh server with a default
// daemon's response cache, and diffs each response byte-for-byte
// against the recorded one. The cache must match the recording
// daemon's: a repeat request recorded as a cache hit carries the first
// computation's pool info, which only a caching replay server
// re-derives (the `dyncgd replay` subcommand exposes the knobs). The
// replay server does not coalesce: it serves one record at a time, so
// no two requests are ever in flight together and a coalescer could
// never merge. Session IDs — the one intentionally random byte
// sequence in a response — are mapped between recording and replay;
// everything else must match exactly, or the report carries the first
// divergence.
func Replay(dir string, opts ...ReplayOption) (*ReplayReport, error) {
	recs, err := replaylog.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	srv := server.New(server.Config{CacheBytes: server.DefaultCacheBytes})
	return replaylog.Replay(srv.Handler(), recs, opts...)
}

// VerifyReplayLog verifies the computation log under dir end to end and
// returns the number of records that verified before any failure; a
// tampered log yields a *ReplayTamperError locating the first bad
// record.
func VerifyReplayLog(dir string) (int, error) {
	return replaylog.VerifyChain(dir)
}
