package api

import "encoding/json"

// Replay-log wire schema (v1): the envelope of one line of the
// hash-chained computation log (internal/replaylog). Every served /v1/*
// request appends one record in arrival order; a sealed segment ends
// with an anchor record carrying the Merkle root of the segment's record
// hashes. The chain fields make the log tamper-evident:
//
//   - Prev is the hex SHA-256 hash of the previous record (the anchor of
//     the preceding segment at a segment boundary; "" for the first
//     record of the log).
//   - Hash is the hex SHA-256 over the record's canonical JSON encoding
//     with Hash itself empty — so every byte of the record, Prev
//     included, is covered, and flipping any byte anywhere breaks either
//     this record's hash or the next record's Prev link.
//
// Records are written as compact single-line JSON (JSONL), byte for
// byte json.Marshal's encoding of the record: request and response
// bodies are embedded as raw JSON, compacted and HTML-escaped as
// json.Marshal embeds a json.RawMessage (a body already in that form is
// copied as is), so VerifyChain can check the stored bytes exactly by
// re-encoding with json.Marshal. internal/replaylog writes these bytes
// by hand, so a field added here must be added to its appendRecord too;
// its TestSealLineMatchesMarshal and FuzzSealRecord hold the two
// encodings equal.

// ReplayMeta is the execution metadata of one recorded request: enough
// to see, without parsing the embedded bodies, which machine served it
// and under which fault schedule.
type ReplayMeta struct {
	// Topology and PEs describe the machine that served the request
	// (empty/0 when the request failed before machine selection).
	Topology string `json:"topology,omitempty"`
	PEs      int    `json:"pes,omitempty"`
	// Workers is the worker count the response echoed (0 = serial).
	Workers int `json:"workers,omitempty"`
	// FaultSeed is the seed of a fault-injected request's schedule.
	FaultSeed int64 `json:"fault_seed,omitempty"`
	// Session is the session ID a stateful request addressed.
	Session string `json:"session,omitempty"`
	// Member is the fleet member that served the request, recorded by
	// the front door (empty for single-process logs).
	Member string `json:"member,omitempty"`
}

// ReplayRecord is the v1 envelope of one computation-log record.
type ReplayRecord struct {
	V int `json:"v"`
	// Seq numbers records consecutively from 0 across the whole log
	// (segments included); VerifyChain reports the Seq of the first
	// tampered record.
	Seq uint64 `json:"seq"`
	// Time is the RFC3339Nano arrival timestamp — audit metadata,
	// covered by the hash but ignored by replay.
	Time string `json:"time,omitempty"`

	// Method, Path (the full request URI, query included), Status, and
	// the raw request/response bodies of the served request. A non-JSON
	// request body (a recorded decode failure) is stored in RequestBin
	// instead of Request.
	Method     string          `json:"method,omitempty"`
	Path       string          `json:"path,omitempty"`
	Status     int             `json:"status,omitempty"`
	Meta       ReplayMeta      `json:"meta"`
	Request    json.RawMessage `json:"request,omitempty"`
	RequestBin []byte          `json:"request_bin,omitempty"`
	Response   json.RawMessage `json:"response,omitempty"`

	// Anchor marks a segment seal: Count is the number of computation
	// records the segment holds and Root the Merkle root over their
	// hashes. Anchor records carry no request fields and are skipped by
	// replay.
	Anchor bool   `json:"anchor,omitempty"`
	Count  uint64 `json:"count,omitempty"`
	Root   string `json:"root,omitempty"`

	Prev string `json:"prev"`
	Hash string `json:"hash"`
}
