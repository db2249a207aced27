// Package shard is the consistent-hash ring the fleet front door
// (internal/fleet) routes by, and that every fleet worker rebuilds to
// mint session IDs which hash home to it (server.Config.FleetIDs).
//
// The ring is the textbook construction over named members: each
// member is hashed at many virtual points on a circle, a key is hashed
// once, and the owning member is the first virtual point clockwise.
// Virtual points smooth the load split (with 64 points per member the
// imbalance is a few percent) and keep reassignment minimal when the
// roster changes: keys move only onto or off the members whose points
// appeared or vanished.
package shard

import (
	"fmt"
	"hash/fnv"
	"sort"
)

// DefaultReplicas is the virtual-point count per member used by
// NewNamed when replicas <= 0.
const DefaultReplicas = 64

// NamedRing is an immutable consistent-hash ring over named members.
// Keying the ring by member ID (rather than position) means the front
// door and every worker process can build the same ring from the same
// ID list, and that membership is stable under reordering: the ring
// for "a,b,c" equals the ring for "c,a,b", so a fleet config can list
// members in any order without remapping keys. It is safe for
// concurrent use (all methods are read-only after NewNamed).
type NamedRing struct {
	ids    []string // member IDs, sorted
	points []uint32 // sorted virtual point hashes
	owner  []int    // owner[i] indexes ids
}

// NewNamed builds a ring over the given member IDs with the given
// number of virtual points per member (replicas <= 0 selects
// DefaultReplicas). IDs must be non-empty and distinct; order is
// irrelevant.
func NewNamed(ids []string, replicas int) *NamedRing {
	if len(ids) == 0 {
		panic("shard: named ring over zero members")
	}
	if replicas <= 0 {
		replicas = DefaultReplicas
	}
	sorted := append([]string(nil), ids...)
	sort.Strings(sorted)
	for i, id := range sorted {
		if id == "" {
			panic("shard: empty member ID")
		}
		if i > 0 && id == sorted[i-1] {
			panic(fmt.Sprintf("shard: duplicate member ID %q", id))
		}
	}
	r := &NamedRing{ids: sorted}
	type vp struct {
		h     uint32
		owner int
	}
	vps := make([]vp, 0, len(sorted)*replicas)
	for i, id := range sorted {
		for v := 0; v < replicas; v++ {
			vps = append(vps, vp{hash(fmt.Sprintf("member-%s-vp-%d", id, v)), i})
		}
	}
	sort.Slice(vps, func(i, j int) bool {
		if vps[i].h != vps[j].h {
			return vps[i].h < vps[j].h
		}
		return vps[i].owner < vps[j].owner
	})
	r.points = make([]uint32, len(vps))
	r.owner = make([]int, len(vps))
	for i, p := range vps {
		r.points[i] = p.h
		r.owner[i] = p.owner
	}
	return r
}

// IDs returns the member IDs in sorted order. The slice is shared —
// callers must not mutate it.
func (r *NamedRing) IDs() []string { return r.ids }

// Lookup returns the member owning key: the first virtual point
// clockwise from the key's hash.
func (r *NamedRing) Lookup(key string) string {
	if len(r.ids) == 1 {
		return r.ids[0]
	}
	h := hash(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i] >= h })
	if i == len(r.points) {
		i = 0
	}
	return r.ids[r.owner[i]]
}

// Sequence returns every member in failover order for key: the owner
// first, then each remaining member in the order its first virtual
// point appears walking clockwise. A front door that walks this
// sequence until a member accepts gets bounded retries (each member
// tried once) and a deterministic second choice per key, so failover
// traffic for a downed member spreads across the fleet instead of
// piling onto one neighbor.
func (r *NamedRing) Sequence(key string) []string {
	seq := make([]string, 0, len(r.ids))
	if len(r.ids) == 1 {
		return append(seq, r.ids[0])
	}
	h := hash(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i] >= h })
	seen := make([]bool, len(r.ids))
	for i := 0; i < len(r.points) && len(seq) < len(r.ids); i++ {
		o := r.owner[(start+i)%len(r.points)]
		if !seen[o] {
			seen[o] = true
			seq = append(seq, r.ids[o])
		}
	}
	return seq
}

// hash is FNV-1a over the key bytes — fast, dependency-free, and
// uniform enough for virtual-point smoothing to even out.
func hash(key string) uint32 {
	h := fnv.New32a()
	h.Write([]byte(key))
	return h.Sum32()
}
