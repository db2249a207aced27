package api

// The v1 cluster-introspection envelope (GET /v1/cluster): the
// debugging entry point for "why did this request land there". It
// reports the serving topology — one member for a plain server, or the
// worker processes of a fleet — with per-member health and load, and
// resolves an optional ?key= probe (a canonical request hash or a
// session ID) to the member the consistent-hash ring routes it to.

// ClusterMember describes one routing target: a fleet member or the
// server itself.
type ClusterMember struct {
	ID string `json:"id"`
	// URL is the member's base URL (fleet mode only).
	URL string `json:"url,omitempty"`
	// Healthy reports whether the front door currently routes to the
	// member (probe or forwarding failures mark it down); for local
	// members it is the inverse of draining.
	Healthy bool `json:"healthy"`
	// Inflight and QueueDepth are the member's admission-window state;
	// IdlePEs its pooled warm capacity; Sessions its live session
	// count. All zero when the member is unreachable.
	Inflight   int `json:"inflight"`
	QueueDepth int `json:"queue_depth"`
	IdlePEs    int `json:"idle_pes"`
	Sessions   int `json:"sessions"`
}

// ClusterProbe resolves one routing key to its owning member.
type ClusterProbe struct {
	// Key is the probed routing key, verbatim: a canonical request hash
	// (internal/canon) for one-shots, a session ID for sessions.
	Key string `json:"key"`
	// Member is the ring owner of Key — where a request carrying this
	// key routes while that member is healthy.
	Member string `json:"member"`
}

// ClusterResponse is the v1 envelope of GET /v1/cluster.
type ClusterResponse struct {
	V int `json:"v"`
	// Mode is the serving topology: "single" (one process, no routing)
	// or "fleet" (worker processes behind a front door).
	Mode    string          `json:"mode"`
	Members []ClusterMember `json:"members"`
	Probe   *ClusterProbe   `json:"probe,omitempty"`
}
