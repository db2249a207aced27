package api

// Session wire schema (v1): the envelopes of the stateful scenario
// endpoints. A session pins a warm machine and keeps one algorithm's
// intermediate envelope state resident across requests:
//
//	POST   /v1/sessions              SessionCreateRequest → SessionCreateResponse
//	POST   /v1/sessions/{id}/update  SessionUpdateRequest → SessionUpdateResponse
//	GET    /v1/sessions/{id}/query   → SessionQueryResponse
//	DELETE /v1/sessions/{id}         → SessionDeleteResponse
//
// Result payloads reuse the one-shot result element types (NeighborEvent,
// PairEvent, Piece, Interval, MinCube) — a session's maintained answer is
// the same shape as the corresponding one-shot algorithm's.

// SessionOptions are the machine and lifecycle options of a session
// create request.
type SessionOptions struct {
	// Topology selects the machine family: mesh|hypercube. Empty means
	// hypercube. (Session algorithms are the envelope-backed subset, so
	// only the two topologies with λ-allocation prescriptions apply.)
	Topology string `json:"topology,omitempty"`
	// PEs raises the minimum machine size above the session's own
	// prescription. 0 means the prescription for (algorithm, capacity,
	// max_degree).
	PEs int `json:"pes,omitempty"`
	// Workers is echoed, resolved (-1 = GOMAXPROCS), in machine.workers;
	// the session's machine runs serially whatever it says.
	Workers int `json:"workers,omitempty"`
	// Capacity is the maximum live population over the session lifetime;
	// the pinned machine is sized for it once. 0 = max(2·n, 8).
	Capacity int `json:"capacity,omitempty"`
	// MaxDegree bounds the motion degree of every trajectory ever sent
	// to the session. 0 = the initial system's observed degree.
	MaxDegree int `json:"max_degree,omitempty"`
	// DeadlineMs caps each session request's time in the server (0 = the
	// server default).
	DeadlineMs int64 `json:"deadline_ms,omitempty"`
}

// SessionCreateRequest is the envelope of POST /v1/sessions.
type SessionCreateRequest struct {
	V         int    `json:"v"`
	Algorithm string `json:"algorithm"`
	// System is the initial system of moving points:
	// point → coordinate → ascending polynomial coefficients.
	System [][][]float64 `json:"system"`
	// Origin is the query point index (point-sequence algorithms).
	Origin int `json:"origin,omitempty"`
	// Dims are the hyper-rectangle side lengths (containment-intervals).
	Dims    []float64      `json:"dims,omitempty"`
	Options SessionOptions `json:"options,omitempty"`
}

// SessionInfo describes a live session; returned by every session
// endpoint.
type SessionInfo struct {
	ID        string      `json:"id"`
	Algorithm string      `json:"algorithm"`
	Machine   MachineInfo `json:"machine"`
	Capacity  int         `json:"capacity"`
	MaxDegree int         `json:"max_degree"`
	// Origin is the stable ID of the query point; -1 when the algorithm
	// has none.
	Origin int `json:"origin"`
	// Points are the live stable point IDs, ascending. Initial points get
	// 0..n-1; inserts continue the sequence; IDs are never reused.
	Points []int `json:"points"`
	// Updates counts the applied update batches.
	Updates uint64 `json:"updates"`
}

// SessionCreateResponse is the envelope answering POST /v1/sessions.
// Stats is the simulated cost of the from-scratch build; Result is the
// session's initial answer.
type SessionCreateResponse struct {
	V       int         `json:"v"`
	Session SessionInfo `json:"session"`
	Pool    PoolInfo    `json:"pool"`
	Stats   Stats       `json:"stats"`
	Result  any         `json:"result"`
}

// SessionDelta is one update operation: op is insert|delete|retarget.
// point (coordinate → ascending coefficients) is required for insert and
// retarget; id for delete and retarget.
type SessionDelta struct {
	Op    string      `json:"op"`
	ID    int         `json:"id,omitempty"`
	Point [][]float64 `json:"point,omitempty"`
}

// SessionUpdateRequest is the envelope of POST /v1/sessions/{id}/update.
// The batch is atomic: it either applies in full or leaves the session
// untouched.
type SessionUpdateRequest struct {
	V      int            `json:"v"`
	Deltas []SessionDelta `json:"deltas"`
}

// SessionUpdateResponse reports one applied batch: the IDs assigned to
// its inserts, its work, and the refreshed result.
type SessionUpdateResponse struct {
	V        int         `json:"v"`
	Session  SessionInfo `json:"session"`
	Inserted []int       `json:"inserted,omitempty"`
	// DirtyLeaves counts the leaf slots the batch rewrote, summed over
	// the session's envelopes.
	DirtyLeaves int `json:"dirty_leaves"`
	// MergedNodes counts the Lemma 3.1 block merges of the batch's
	// Theorem 3.2 envelope passes: NextPow2(slots) − 1 per envelope,
	// whatever the batch size.
	MergedNodes int `json:"merged_nodes"`
	// Stats is the simulated cost of the batch: one envelope pass per
	// envelope plus the derivation, the cost of a verify=1 rebuild.
	Stats  Stats `json:"stats"`
	Result any   `json:"result"`
}

// SessionQueryResponse is the envelope answering GET
// /v1/sessions/{id}/query — the maintained result, with no recompute.
// With ?verify=1 the server re-derives the answer from scratch on the
// session's machine and sets Verified to whether the maintained result
// is bit-identical (a live audit of the batch-dynamic contract).
type SessionQueryResponse struct {
	V        int         `json:"v"`
	Session  SessionInfo `json:"session"`
	Result   any         `json:"result"`
	Verified *bool       `json:"verified,omitempty"`
}

// SessionDeleteResponse is the envelope answering DELETE
// /v1/sessions/{id}. The session's machine has been reset and returned
// to the warm pool when this response is sent.
type SessionDeleteResponse struct {
	V       int    `json:"v"`
	ID      string `json:"id"`
	Updates uint64 `json:"updates"`
}
