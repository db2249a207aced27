package api

// The v1 error envelope. Every non-2xx /v1/* response carries exactly
// this shape, so clients in any language can branch on a stable
// machine-readable code instead of parsing message prose, decide
// whether a retry can help without a hand-maintained status-code
// table, and — in fleet deployments — see which member the error is
// about. The envelope is golden-pinned in testdata/v1_error.json; the
// code list below is closed on purpose: the serving layer can only
// emit codes that have a typed constant, so a new failure mode is a
// visible API change, not an ad-hoc string.

// ErrorCode identifies one failure mode of the serving surface. Codes
// are stable wire values: they never change meaning, and removing one
// is a breaking API change.
type ErrorCode string

// The request-shaped failures: the request itself is invalid and will
// fail identically on any member at any load. Never retryable.
const (
	// CodeBadRequest: the body failed to read or parse (oversize,
	// truncated, or malformed JSON).
	CodeBadRequest ErrorCode = "bad_request"
	// CodeBadVersion: the envelope's schema version is not supported.
	CodeBadVersion ErrorCode = "bad_version"
	// CodeBadTopology: the topology option names no machine family the
	// endpoint supports.
	CodeBadTopology ErrorCode = "bad_topology"
	// CodeBadFaults: the fault-injection spec failed to parse.
	CodeBadFaults ErrorCode = "bad_faults"
	// CodeBadSystem: the system of moving points is invalid (empty,
	// ragged coordinates, or a malformed delta batch).
	CodeBadSystem ErrorCode = "bad_system"
	// CodeTooFewPEs: the machine the options allow is smaller than the
	// theorem's prescription for this system.
	CodeTooFewPEs ErrorCode = "too_few_pes"
	// CodeUnknownAlgorithm: the URL names no serving endpoint.
	CodeUnknownAlgorithm ErrorCode = "unknown_algorithm"
)

// The state-shaped failures: the request is well-formed but the thing
// it addresses is gone or broken. Not retryable — the state does not
// come back on its own.
const (
	// CodeNoSession: the session ID is unknown (never created, deleted,
	// TTL-evicted, or lost with a restarted fleet member).
	CodeNoSession ErrorCode = "no_session"
	// CodeNotSurvivable: the injected fault schedule destroyed more of
	// the machine than the recovery theorems can remap around.
	CodeNotSurvivable ErrorCode = "not_survivable"
	// CodeMemberDown: the fleet member owning the addressed session is
	// marked down, and session state cannot move between processes. The
	// session is orphaned until (and unless) its member returns.
	CodeMemberDown ErrorCode = "member_down"
	// CodeInternal: the server broke an invariant; the message is the
	// only diagnostic.
	CodeInternal ErrorCode = "internal"
)

// The load-shaped failures: admission artifacts of the moment the
// request arrived. All retryable — the identical request can succeed
// seconds later.
const (
	// CodeQueueFull: the admission queue was full (HTTP 429).
	CodeQueueFull ErrorCode = "queue_full"
	// CodeTooManySessions: the live-session cap is reached (HTTP 429).
	CodeTooManySessions ErrorCode = "too_many_sessions"
	// CodeDraining: the server is shutting down (HTTP 503).
	CodeDraining ErrorCode = "draining"
	// CodeDeadlineQueued: the request's deadline expired while it
	// waited for an execution slot (HTTP 503).
	CodeDeadlineQueued ErrorCode = "deadline_queued"
	// CodeDeadlineExceeded: the deadline expired mid-execution
	// (HTTP 504).
	CodeDeadlineExceeded ErrorCode = "deadline_exceeded"
	// CodeCoalesceTimeout: the deadline expired while waiting for an
	// identical in-flight computation to finish (HTTP 503).
	CodeCoalesceTimeout ErrorCode = "coalesce_timeout"
	// CodeNoMembers: the fleet front door found no live member to route
	// a stateless request to (HTTP 503).
	CodeNoMembers ErrorCode = "no_members"
)

// retryable is the closed set of codes whose failures are artifacts of
// load or momentary membership, not of the request.
var retryable = map[ErrorCode]bool{
	CodeQueueFull:        true,
	CodeTooManySessions:  true,
	CodeDraining:         true,
	CodeDeadlineQueued:   true,
	CodeDeadlineExceeded: true,
	CodeCoalesceTimeout:  true,
	CodeNoMembers:        true,
}

// Retryable reports whether an identical retry of the failed request
// can succeed: true exactly for the load-shaped admission codes.
func (c ErrorCode) Retryable() bool { return retryable[c] }

// Error is the v1 error envelope of every non-2xx /v1/* response.
type Error struct {
	V    int       `json:"v"`
	Code ErrorCode `json:"code"`
	// Message is the human-readable diagnostic. Its text is not part of
	// the API contract; branch on Code.
	Message string `json:"message"`
	// Retryable mirrors Code.Retryable() on the wire, so clients need
	// no code table to implement backoff-and-retry.
	Retryable bool `json:"retryable,omitempty"`
	// Member names the fleet member the error is about — the down
	// member of a member_down, for example. Empty outside fleet
	// deployments (the X-Dyncg-Member header attributes every response,
	// errors included, to the process that produced it).
	Member string `json:"member,omitempty"`
}

// NewError builds the envelope for a code, deriving Retryable.
func NewError(code ErrorCode, message string) *Error {
	return &Error{V: Version, Code: code, Message: message, Retryable: code.Retryable()}
}
