package session

import (
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"dyncg/internal/machine"
)

// Session is one live registered scenario: an engine pinned to its
// machine, plus the bookkeeping the registry and the serving layer need.
// All engine access goes through Do, which serialises on the per-session
// mutex; the machine stays owned by the session until Close releases it.
type Session struct {
	ID      string
	Eng     *Engine
	M       *machine.M
	Topo    string
	PEs     int
	Workers int
	Created time.Time
	// Deadline caps each admitted request on the session (update, and
	// query with verification), resolved once at create.
	Deadline time.Duration

	mu       sync.Mutex
	closed   bool
	lastUsed atomic.Int64 // unix nanos; written by Do, read by Sweep
}

// Do runs fn with exclusive access to the session, refreshing its idle
// deadline. Returns ErrNoSession if the session was closed concurrently
// (deleted or TTL-evicted between lookup and lock).
func (s *Session) Do(now time.Time, fn func(*Session) error) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrNoSession
	}
	s.lastUsed.Store(now.UnixNano())
	return fn(s)
}

// close releases the session's machine exactly once.
func (s *Session) close(release func(*Session)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	s.closed = true
	if release != nil {
		release(s)
	}
}

// Registry holds the live sessions of one server: a capacity bound, an
// idle TTL, and a release callback invoked exactly once per session when
// it is deleted or evicted (the HTTP layer uses it to WarmReset the
// pinned machine and return it to the warm pool).
//
// Expiry is swept lazily — Sweep is called from the serving paths rather
// than a janitor goroutine, so a registry adds no background goroutines
// (the churn accounting test relies on this).
type Registry struct {
	max     int
	ttl     time.Duration
	release func(*Session)
	now     func() time.Time // test seam

	// idCheck, when set, is a predicate every minted session ID must
	// satisfy; Add re-mints the random suffix until it passes. A fleet
	// worker installs "this ID consistent-hashes back to me on the
	// fleet ring", so the front door routing a session ID always finds
	// the process holding its pinned machine.
	idCheck func(string) bool

	// idSalt, when set, is embedded in every minted ID ("s-<salt>-…").
	// Fleet workers set their member ID here so session IDs minted by
	// different processes can never collide — each process's (salt,
	// seq) pair is unique fleet-wide even though the seq counters are
	// process-local.
	idSalt string

	mu        sync.Mutex
	sessions  map[string]*Session
	seq       uint64
	evictions atomic.Uint64
}

// SetIDCheck installs the ID predicate. Call before serving begins:
// installation is not synchronized with concurrent Add.
func (r *Registry) SetIDCheck(check func(string) bool) { r.idCheck = check }

// SetIDPrefix salts minted session IDs with the given member ID. Call
// before serving begins: installation is not synchronized with
// concurrent Add.
func (r *Registry) SetIDPrefix(member string) { r.idSalt = member }

// NewRegistry builds a registry. max ≤ 0 means unbounded; ttl ≤ 0
// disables idle eviction; release may be nil.
func NewRegistry(max int, ttl time.Duration, release func(*Session)) *Registry {
	return &Registry{
		max:      max,
		ttl:      ttl,
		release:  release,
		now:      time.Now,
		sessions: make(map[string]*Session),
	}
}

// Add registers a new session over an engine and its pinned machine,
// assigning the ID. Fails with ErrTooManySessions at capacity (sweep
// first: an expired session should never crowd out a new one).
func (r *Registry) Add(eng *Engine, m *machine.M, topo string, workers int, deadline time.Duration) (*Session, error) {
	r.Sweep()
	now := r.now()
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.max > 0 && len(r.sessions) >= r.max {
		return nil, fmt.Errorf("%w (max %d)", ErrTooManySessions, r.max)
	}
	r.seq++
	salt := ""
	if r.idSalt != "" {
		salt = r.idSalt + "-"
	}
	var id string
	for attempt := 0; ; attempt++ {
		var rnd [4]byte
		if _, err := rand.Read(rnd[:]); err != nil {
			return nil, fmt.Errorf("session: id generation: %w", err)
		}
		id = fmt.Sprintf("s-%s%d-%s", salt, r.seq, hex.EncodeToString(rnd[:]))
		if r.idCheck == nil || r.idCheck(id) {
			break
		}
		// Each mint passes an n-member check with probability ~1/n, so
		// even a wide fleet converges in a handful of draws; the cap
		// only guards against a broken predicate.
		if attempt >= 256 {
			return nil, fmt.Errorf("session: id minting failed the shard check after %d attempts", attempt+1)
		}
	}
	s := &Session{
		ID:       id,
		Eng:      eng,
		M:        m,
		Topo:     topo,
		PEs:      m.Size(),
		Workers:  workers,
		Created:  now,
		Deadline: deadline,
	}
	s.lastUsed.Store(now.UnixNano())
	r.sessions[s.ID] = s
	return s, nil
}

// Lookup returns the live session with the given ID, if any. The
// session may close before the caller uses it; Do reports that.
func (r *Registry) Lookup(id string) (*Session, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	s, ok := r.sessions[id]
	return s, ok
}

// Do looks up a session and runs fn with exclusive access to it.
func (r *Registry) Do(id string, fn func(*Session) error) error {
	s, ok := r.Lookup(id)
	if !ok {
		return fmt.Errorf("%w: %q", ErrNoSession, id)
	}
	return s.Do(r.now(), fn)
}

// Remove deletes a session and releases its machine.
func (r *Registry) Remove(id string) error {
	r.mu.Lock()
	s, ok := r.sessions[id]
	if ok {
		delete(r.sessions, id)
	}
	r.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %q", ErrNoSession, id)
	}
	s.close(r.release)
	return nil
}

// Sweep evicts every session idle past the TTL and returns how many. The
// expired set is collected under the registry lock but closed outside
// it, so a slow release callback never blocks lookups.
func (r *Registry) Sweep() int {
	if r.ttl <= 0 {
		return 0
	}
	deadline := r.now().Add(-r.ttl).UnixNano()
	var expired []*Session
	r.mu.Lock()
	for id, s := range r.sessions {
		if s.lastUsed.Load() < deadline {
			delete(r.sessions, id)
			expired = append(expired, s)
		}
	}
	r.mu.Unlock()
	for _, s := range expired {
		s.close(r.release)
		r.evictions.Add(1)
	}
	return len(expired)
}

// Len returns the number of live sessions.
func (r *Registry) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.sessions)
}

// Evictions returns the total TTL evictions since creation.
func (r *Registry) Evictions() uint64 { return r.evictions.Load() }

// Close releases every session (server shutdown).
func (r *Registry) Close() {
	r.mu.Lock()
	all := make([]*Session, 0, len(r.sessions))
	for id, s := range r.sessions {
		delete(r.sessions, id)
		all = append(all, s)
	}
	r.mu.Unlock()
	for _, s := range all {
		s.close(r.release)
	}
}
