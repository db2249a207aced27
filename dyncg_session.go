package dyncg

import (
	"fmt"

	"dyncg/internal/session"
)

// Batch-dynamic scenario sessions (facade over internal/session).
//
// A Session pins one machine and keeps the algorithm's points and the
// leaf curves of its envelopes resident. A batch of k trajectory changes
// rewrites only the k dirty leaves and then answers with one
// from-scratch Theorem 3.2 envelope pass, so it charges the same
// simulated cost as Session.Rebuild; the session saves the system build,
// the machine checkout and re-sending the points. The maintained answer
// is bit-identical to a from-scratch run on the same machine —
// Session.Rebuild audits that contract on demand.

// SessionAlgo names a session-maintainable algorithm — the
// envelope-backed subset of the facade (point sequences, pair sequences,
// and the span-derived hypercube/containment family).
type SessionAlgo = session.Algo

// The session algorithms.
const (
	SessionClosestPointSeq  = session.ClosestPointSeq
	SessionFarthestPointSeq = session.FarthestPointSeq
	SessionClosestPairSeq   = session.ClosestPairSeq
	SessionFarthestPairSeq  = session.FarthestPairSeq
	SessionCubeEdge         = session.CubeEdge
	SessionSmallestEver     = session.SmallestEver
	SessionContainment      = session.Containment
)

// ParseSessionAlgo converts an algorithm name (the /v1/sessions wire
// names) into a SessionAlgo.
func ParseSessionAlgo(s string) (SessionAlgo, error) { return session.ParseAlgo(s) }

// SessionConfig configures NewSession. Algorithm is required; see
// session.Config for the zero-value defaults of the rest.
type SessionConfig = session.Config

// SessionDelta is one update operation of a batch: insert, delete, or
// retarget. Build them with InsertPoint, DeletePoint, and RetargetPoint.
type SessionDelta = session.Delta

// SessionResult is a session's maintained answer; which fields are
// populated depends on the algorithm (see session.Result).
type SessionResult = session.Result

// SessionApplyStats reports the work one applied batch caused: leaf
// slots rewritten and Lemma 3.1 block merges run by its envelope passes.
type SessionApplyStats = session.ApplyStats

// InsertPoint is a delta adding a point with a fresh stable ID (returned
// by Session.Apply).
func InsertPoint(p Point) SessionDelta {
	return SessionDelta{Op: session.OpInsert, Point: p}
}

// DeletePoint is a delta removing the point with the given stable ID.
func DeletePoint(id int) SessionDelta {
	return SessionDelta{Op: session.OpDelete, ID: id}
}

// RetargetPoint is a delta replacing the trajectory of the point with
// the given stable ID.
func RetargetPoint(id int, p Point) SessionDelta {
	return SessionDelta{Op: session.OpRetarget, ID: id, Point: p}
}

// SessionPEs returns the PE prescription for a session of the given
// algorithm on the given topology (mesh or hypercube): enough processors
// to hold capacity envelopes of the algorithm's λ-complexity at degree
// maxDegree. Pass the result to NewMachine (or TopologySize for the
// exact machine size class).
func SessionPEs(topo Topology, algo SessionAlgo, capacity, maxDegree int) (int, error) {
	switch topo {
	case Mesh, Hypercube:
		return session.PEs(string(topo), algo, capacity, maxDegree), nil
	}
	return 0, fmt.Errorf("dyncg: sessions require a mesh or hypercube machine, not %q", topo)
}

// Session is a stateful batch-dynamic scenario: a pinned machine plus
// the live points and the cached leaves of the algorithm's envelopes.
// Sessions are not safe for concurrent use.
type Session struct {
	eng *session.Engine
}

// NewSession builds the initial structures for sys on m and returns a
// handle maintaining cfg.Algorithm. The machine must satisfy
// SessionPEs for the session's capacity and degree bound; the initial
// points get stable IDs 0..n-1.
func NewSession(m *Machine, cfg SessionConfig, sys *System) (*Session, error) {
	pts := make([]Point, len(sys.Points))
	copy(pts, sys.Points)
	eng, err := session.New(m, cfg, pts)
	if err != nil {
		return nil, err
	}
	return &Session{eng: eng}, nil
}

// Apply applies one batch of deltas atomically: either every delta
// applies and the maintained answer is recomputed, or the session is
// unchanged and the error reports the first offending delta.
// It returns the stable IDs assigned to the batch's inserts, in order.
func (s *Session) Apply(deltas ...SessionDelta) ([]int, SessionApplyStats, error) {
	return s.eng.Apply(deltas)
}

// Result returns the maintained answer. It is always current — Apply
// refreshes it before returning — and costs no simulated work.
func (s *Session) Result() SessionResult { return s.eng.Result() }

// Rebuild recomputes the answer from scratch on the session's machine
// and returns it, without touching the maintained state. It is the
// audit oracle: the result must equal Result exactly.
func (s *Session) Rebuild() (SessionResult, error) { return s.eng.Rebuild() }

// Points returns the live stable IDs, ascending.
func (s *Session) Points() []int { return s.eng.Points() }

// Point returns the current trajectory of a live stable ID.
func (s *Session) Point(id int) (Point, bool) { return s.eng.Point(id) }

// Algorithm returns the session's algorithm.
func (s *Session) Algorithm() SessionAlgo { return s.eng.Algorithm() }

// Capacity returns the maximum live population the pinned machine is
// sized for.
func (s *Session) Capacity() int { return s.eng.Capacity() }

// Updates counts the batches applied so far.
func (s *Session) Updates() uint64 { return s.eng.Updates() }
