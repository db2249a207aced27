package session

import (
	"errors"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"dyncg/internal/hypercube"
	"dyncg/internal/machine"
	"dyncg/internal/mesh"
	"dyncg/internal/motion"
	"dyncg/internal/poly"
)

// randPoint draws one moving point with degree-k coordinates in d
// dimensions (same coefficient shaping as motion.Random).
func randPoint(r *rand.Rand, d, k int) motion.Point {
	coords := make([]poly.Poly, d)
	for c := range coords {
		cf := make([]float64, k+1)
		cf[0] = (r.Float64()*2 - 1) * 10
		for deg := 1; deg <= k; deg++ {
			cf[deg] = r.NormFloat64() / float64(deg*deg)
		}
		coords[c] = poly.New(cf...)
	}
	return motion.NewPoint(coords...)
}

func randPoints(r *rand.Rand, n, d, k int) []motion.Point {
	pts := make([]motion.Point, n)
	for i := range pts {
		pts[i] = randPoint(r, d, k)
	}
	return pts
}

// newTestMachine builds a machine of the session's prescribed size.
func newTestMachine(t testing.TB, topo string, algo Algo, capacity, maxK int) *machine.M {
	t.Helper()
	pes := PEs(topo, algo, capacity, maxK)
	if topo == "mesh" {
		return machine.New(mesh.MustNew(pes, mesh.Proximity))
	}
	return machine.New(hypercube.MustNew(pes))
}

// sameResult asserts the bit-identity contract between the maintained
// and the from-scratch answer.
func sameResult(t *testing.T, got, want Result, label string) {
	t.Helper()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: incremental and rebuilt results differ\n got: %+v\nwant: %+v", label, got, want)
	}
}

func TestParseAlgo(t *testing.T) {
	for _, a := range []Algo{ClosestPointSeq, FarthestPointSeq, ClosestPairSeq,
		FarthestPairSeq, CubeEdge, SmallestEver, Containment} {
		if got, err := ParseAlgo(string(a)); err != nil || got != a {
			t.Fatalf("ParseAlgo(%q) = %q, %v", a, got, err)
		}
	}
	if _, err := ParseAlgo("convex-hull"); !errors.Is(err, motion.ErrBadSystem) {
		t.Fatalf("unknown algorithm error = %v, want ErrBadSystem", err)
	}
}

func TestNewValidation(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	pts := randPoints(r, 4, 2, 1)
	m := newTestMachine(t, "hypercube", ClosestPointSeq, 8, 1)
	cases := []struct {
		name string
		cfg  Config
		pts  []motion.Point
	}{
		{"unknown algo", Config{Algorithm: "nope"}, pts},
		{"empty system", Config{Algorithm: ClosestPointSeq}, nil},
		{"origin out of range", Config{Algorithm: ClosestPointSeq, Origin: 9, Capacity: 8}, pts},
		{"capacity below population", Config{Algorithm: ClosestPointSeq, Capacity: 2}, pts},
		{"degree over bound", Config{Algorithm: ClosestPointSeq, Capacity: 8, MaxDegree: 1},
			randPoints(r, 4, 2, 3)},
		{"pair sequence singleton", Config{Algorithm: ClosestPairSeq, Capacity: 8}, pts[:1]},
		{"containment dims mismatch", Config{Algorithm: Containment, Capacity: 8, Dims: []float64{1}}, pts},
	}
	for _, tc := range cases {
		if _, err := New(m, tc.cfg, tc.pts); !errors.Is(err, motion.ErrBadSystem) {
			t.Errorf("%s: err = %v, want ErrBadSystem", tc.name, err)
		}
	}
	if _, err := New(machine.New(hypercube.MustNew(4)),
		Config{Algorithm: ClosestPointSeq, Capacity: 8}, pts); !errors.Is(err, machine.ErrTooFewPEs) {
		t.Errorf("undersized machine: err = %v, want ErrTooFewPEs", err)
	}
}

// TestApplyAtomicity: a rejected batch must leave points, IDs, and the
// maintained result untouched, even when its prefix was valid.
func TestApplyAtomicity(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	pts := randPoints(r, 4, 2, 1)
	m := newTestMachine(t, "hypercube", ClosestPointSeq, 8, 1)
	e, err := New(m, Config{Algorithm: ClosestPointSeq, Origin: 0, Capacity: 8}, pts)
	if err != nil {
		t.Fatal(err)
	}
	before := e.Result()
	idsBefore := e.Points()
	bad := [][]Delta{
		nil, // empty batch
		{{Op: OpDelete, ID: 42}},
		{{Op: OpDelete, ID: 0}}, // the origin
		{{Op: OpRetarget, ID: 99, Point: randPoint(r, 2, 1)}},
		{{Op: OpInsert, Point: randPoint(r, 3, 1)}},                          // wrong dimension
		{{Op: OpInsert, Point: randPoint(r, 2, 1)}, {Op: "teleport", ID: 1}}, // valid prefix, bad op
	}
	for i, b := range bad {
		if _, _, err := e.Apply(b); err == nil {
			t.Fatalf("bad batch %d accepted", i)
		}
		sameResult(t, e.Result(), before, "result after rejected batch")
		if !reflect.DeepEqual(e.Points(), idsBefore) {
			t.Fatalf("bad batch %d mutated the population: %v", i, e.Points())
		}
	}
	if e.Updates() != 0 {
		t.Fatalf("rejected batches counted as updates: %d", e.Updates())
	}
}

func TestApplyInsertDeleteLifecycle(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	pts := randPoints(r, 3, 2, 1)
	m := newTestMachine(t, "hypercube", FarthestPointSeq, 8, 1)
	e, err := New(m, Config{Algorithm: FarthestPointSeq, Origin: 1, Capacity: 8}, pts)
	if err != nil {
		t.Fatal(err)
	}
	ins, st, err := e.Apply([]Delta{
		{Op: OpInsert, Point: randPoint(r, 2, 1)},
		{Op: OpInsert, Point: randPoint(r, 2, 1)},
		{Op: OpDelete, ID: 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ins, []int{3, 4}) {
		t.Fatalf("inserted IDs = %v, want [3 4]", ins)
	}
	// Points 0 and 2 hold slots 0 and 1 (the origin has none); 3 and 4
	// take slots 2 and 3 and deleting 0 frees slot 0. One envelope over 8
	// slots merges 7 blocks.
	if want := (ApplyStats{DirtyLeaves: 3, MergedNodes: 7}); st != want {
		t.Fatalf("stats = %+v, want %+v", st, want)
	}
	if want := []int{1, 2, 3, 4}; !reflect.DeepEqual(e.Points(), want) {
		t.Fatalf("Points() = %v, want %v", e.Points(), want)
	}
	// Capacity is a hard bound on the live population.
	var over []Delta
	for i := 0; i < 5; i++ {
		over = append(over, Delta{Op: OpInsert, Point: randPoint(r, 2, 1)})
	}
	if _, _, err := e.Apply(over); !errors.Is(err, machine.ErrTooFewPEs) {
		t.Fatalf("over-capacity insert: err = %v, want ErrTooFewPEs", err)
	}
	// Freed IDs are never reused.
	ins, _, err = e.Apply([]Delta{{Op: OpInsert, Point: randPoint(r, 2, 1)}})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ins, []int{5}) {
		t.Fatalf("post-delete insert IDs = %v, want [5]", ins)
	}
	res, err := e.Rebuild()
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, e.Result(), res, "lifecycle end")
}

// TestOriginRetarget: retargeting the query point dirties every leaf and
// still matches the oracle.
func TestOriginRetarget(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	pts := randPoints(r, 5, 2, 1)
	m := newTestMachine(t, "hypercube", ClosestPointSeq, 8, 1)
	e, err := New(m, Config{Algorithm: ClosestPointSeq, Origin: 2, Capacity: 8}, pts)
	if err != nil {
		t.Fatal(err)
	}
	_, st, err := e.Apply([]Delta{{Op: OpRetarget, ID: 2, Point: randPoint(r, 2, 1)}})
	if err != nil {
		t.Fatal(err)
	}
	if st.DirtyLeaves != 4 {
		t.Fatalf("origin retarget dirtied %d leaves, want 4", st.DirtyLeaves)
	}
	res, err := e.Rebuild()
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, e.Result(), res, "origin retarget")
	if _, _, err := e.Apply([]Delta{{Op: OpDelete, ID: 2}}); err == nil {
		t.Fatal("origin deletion accepted")
	}
}

// TestSlotAllocation pins the slot layout, which every answer's piece
// IDs and every charged cost depend on: initial points in ID order with
// the origin skipped, initial pairs (a < b) in lexicographic ID order,
// freed slots reused LIFO, inserted pairs in ascending partner order,
// then the high-water mark.
func TestSlotAllocation(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	m := newTestMachine(t, "hypercube", ClosestPointSeq, 8, 1)
	e, err := New(m, Config{Algorithm: ClosestPointSeq, Origin: 1, Capacity: 8}, randPoints(r, 4, 2, 1))
	if err != nil {
		t.Fatal(err)
	}
	if want := map[int]int{0: 0, 2: 1, 3: 2}; !reflect.DeepEqual(e.live.points.slotOf, want) {
		t.Fatalf("initial point slots = %v, want %v", e.live.points.slotOf, want)
	}
	if _, _, err := e.Apply([]Delta{{Op: OpDelete, ID: 0}, {Op: OpDelete, ID: 2},
		{Op: OpInsert, Point: randPoint(r, 2, 1)}, {Op: OpInsert, Point: randPoint(r, 2, 1)},
		{Op: OpInsert, Point: randPoint(r, 2, 1)}}); err != nil {
		t.Fatal(err)
	}
	if want := map[int]int{3: 2, 4: 1, 5: 0, 6: 3}; !reflect.DeepEqual(e.live.points.slotOf, want) {
		t.Fatalf("point slots after churn = %v, want %v", e.live.points.slotOf, want)
	}

	m = newTestMachine(t, "hypercube", ClosestPairSeq, 6, 1)
	e, err = New(m, Config{Algorithm: ClosestPairSeq, Capacity: 6}, randPoints(r, 4, 2, 1))
	if err != nil {
		t.Fatal(err)
	}
	want := map[[2]int]int{{0, 1}: 0, {0, 2}: 1, {0, 3}: 2, {1, 2}: 3, {1, 3}: 4, {2, 3}: 5}
	if !reflect.DeepEqual(e.live.pairs.slotOf, want) {
		t.Fatalf("initial pair slots = %v, want %v", e.live.pairs.slotOf, want)
	}
	// Deleting 1 frees slots 0, 3, 4; inserting 4 takes 4, 3, 0 for its
	// partners 0, 2, 3; inserting 5 continues at the high-water mark.
	if _, _, err := e.Apply([]Delta{{Op: OpDelete, ID: 1}, {Op: OpInsert, Point: randPoint(r, 2, 1)}}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := e.Apply([]Delta{{Op: OpInsert, Point: randPoint(r, 2, 1)}}); err != nil {
		t.Fatal(err)
	}
	want = map[[2]int]int{{0, 2}: 1, {0, 3}: 2, {2, 3}: 5, {0, 4}: 4, {2, 4}: 3, {3, 4}: 0,
		{0, 5}: 6, {2, 5}: 7, {3, 5}: 8, {4, 5}: 9}
	if !reflect.DeepEqual(e.live.pairs.slotOf, want) {
		t.Fatalf("pair slots after churn = %v, want %v", e.live.pairs.slotOf, want)
	}
}

func TestConfigResolve(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	for _, tc := range []struct {
		n, k, capacity, maxDegree int
		want                      Config
	}{
		{3, 1, 0, 0, Config{Capacity: 8, MaxDegree: 1}},
		{5, 2, 0, 0, Config{Capacity: 10, MaxDegree: 2}},
		{3, 0, 0, 0, Config{Capacity: 8, MaxDegree: 1}},
		{3, 1, 4, 3, Config{Capacity: 4, MaxDegree: 3}},
	} {
		sys, err := motion.NewSystem(randPoints(r, tc.n, 2, tc.k))
		if err != nil {
			t.Fatal(err)
		}
		got := Config{Capacity: tc.capacity, MaxDegree: tc.maxDegree}.Resolve(sys)
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("n=%d k=%d capacity=%d max_degree=%d: resolved %+v, want %+v",
				tc.n, tc.k, tc.capacity, tc.maxDegree, got, tc.want)
		}
	}
}

func TestPEsPrescriptions(t *testing.T) {
	for _, algo := range []Algo{ClosestPointSeq, ClosestPairSeq, CubeEdge} {
		for _, topo := range []string{"hypercube", "mesh"} {
			if n := PEs(topo, algo, 8, 2); n < 8 {
				t.Errorf("PEs(%s, %s) = %d, implausibly small", topo, algo, n)
			}
		}
	}
	if PEs("hypercube", ClosestPairSeq, 8, 2) <= PEs("hypercube", ClosestPointSeq, 8, 2) {
		t.Error("pair sessions must prescribe more PEs than point sessions at equal capacity")
	}
}

// --- Registry ----------------------------------------------------------

func addSession(t *testing.T, r *Registry) *Session {
	t.Helper()
	rng := rand.New(rand.NewSource(11))
	m := newTestMachine(t, "hypercube", ClosestPointSeq, 8, 1)
	e, err := New(m, Config{Algorithm: ClosestPointSeq, Capacity: 8}, randPoints(rng, 3, 2, 1))
	if err != nil {
		t.Fatal(err)
	}
	s, err := r.Add(e, m, "hypercube", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestRegistryLifecycle(t *testing.T) {
	released := 0
	r := NewRegistry(2, time.Hour, func(*Session) { released++ })
	s1 := addSession(t, r)
	s2 := addSession(t, r)
	if s1.ID == s2.ID {
		t.Fatalf("duplicate session IDs: %q", s1.ID)
	}
	if _, err := r.Add(s1.Eng, s1.M, "hypercube", 0, 0); !errors.Is(err, ErrTooManySessions) {
		t.Fatalf("over-capacity Add: err = %v", err)
	}
	var got *Engine
	if err := r.Do(s1.ID, func(s *Session) error { got = s.Eng; return nil }); err != nil {
		t.Fatal(err)
	}
	if got != s1.Eng {
		t.Fatal("Do handed back the wrong session")
	}
	if err := r.Remove(s1.ID); err != nil {
		t.Fatal(err)
	}
	if released != 1 {
		t.Fatalf("released = %d after one Remove", released)
	}
	if err := r.Do(s1.ID, func(*Session) error { return nil }); !errors.Is(err, ErrNoSession) {
		t.Fatalf("Do on removed session: err = %v", err)
	}
	if err := r.Remove(s1.ID); !errors.Is(err, ErrNoSession) {
		t.Fatalf("double Remove: err = %v", err)
	}
	r.Close()
	if released != 2 || r.Len() != 0 {
		t.Fatalf("after Close: released = %d, len = %d", released, r.Len())
	}
}

func TestRegistryTTLSweep(t *testing.T) {
	released := 0
	r := NewRegistry(0, time.Minute, func(*Session) { released++ })
	clock := time.Unix(1000, 0)
	r.now = func() time.Time { return clock }
	s1 := addSession(t, r)
	addSession(t, r)
	// Touch s1 halfway through, then advance past the TTL of the other.
	clock = clock.Add(40 * time.Second)
	if err := r.Do(s1.ID, func(*Session) error { return nil }); err != nil {
		t.Fatal(err)
	}
	clock = clock.Add(30 * time.Second)
	if n := r.Sweep(); n != 1 {
		t.Fatalf("Sweep evicted %d sessions, want 1", n)
	}
	if r.Evictions() != 1 || released != 1 || r.Len() != 1 {
		t.Fatalf("after sweep: evictions=%d released=%d len=%d", r.Evictions(), released, r.Len())
	}
	if err := r.Do(s1.ID, func(*Session) error { return nil }); err != nil {
		t.Fatalf("recently used session evicted: %v", err)
	}
	// Explicit Remove of an already-evicted session is ErrNoSession, and
	// the release callback never fires twice.
	clock = clock.Add(2 * time.Minute)
	r.Sweep()
	if err := r.Remove(s1.ID); !errors.Is(err, ErrNoSession) {
		t.Fatalf("Remove after eviction: err = %v", err)
	}
	if released != 2 {
		t.Fatalf("released = %d, want 2", released)
	}
}

func TestRegistryIDPrefix(t *testing.T) {
	r := NewRegistry(0, time.Hour, nil)
	r.SetIDPrefix("m1")
	s := addSession(t, r)
	if !strings.HasPrefix(s.ID, "s-m1-") {
		t.Fatalf("salted ID = %q, want s-m1-… prefix", s.ID)
	}
	// The salt composes with an ID predicate (the fleet worker installs
	// both): re-minting keeps the salt while varying the suffix.
	r2 := NewRegistry(0, time.Hour, nil)
	r2.SetIDPrefix("m2")
	calls := 0
	r2.SetIDCheck(func(id string) bool {
		calls++
		if !strings.HasPrefix(id, "s-m2-") {
			t.Fatalf("predicate saw unsalted ID %q", id)
		}
		return calls >= 3
	})
	s2 := addSession(t, r2)
	if calls < 3 {
		t.Fatalf("predicate called %d times, want ≥ 3", calls)
	}
	if !strings.HasPrefix(s2.ID, "s-m2-") {
		t.Fatalf("salted ID = %q, want s-m2-… prefix", s2.ID)
	}
}
