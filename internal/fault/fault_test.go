package fault

import (
	"reflect"
	"testing"

	"dyncg/internal/ccc"
	"dyncg/internal/colstore"
	"dyncg/internal/hypercube"
	"dyncg/internal/machine"
	"dyncg/internal/mesh"
	"dyncg/internal/shuffle"
)

func TestParseSpec(t *testing.T) {
	cases := []struct {
		in   string
		want Spec
		ok   bool
	}{
		{"", Spec{}, true},
		{"transient=0.02", Spec{Transient: 0.02}, true},
		{"transient=0.5,retries=2,fail=3,gap=50",
			Spec{Transient: 0.5, MaxRetries: 2, Fail: 3, Gap: 50}, true},
		{" transient=0.1 , fail=1 ", Spec{Transient: 0.1, Fail: 1}, true},
		{"transient=2", Spec{}, false},
		{"transient=-0.1", Spec{}, false},
		{"retries=0", Spec{}, false},
		{"fail=-1", Spec{}, false},
		{"gap=0", Spec{}, false},
		{"bogus=1", Spec{}, false},
		{"transient", Spec{}, false},
	}
	for _, tc := range cases {
		got, err := ParseSpec(tc.in)
		if (err == nil) != tc.ok {
			t.Fatalf("ParseSpec(%q) error = %v, want ok=%v", tc.in, err, tc.ok)
		}
		if err == nil && got != tc.want {
			t.Fatalf("ParseSpec(%q) = %+v, want %+v", tc.in, got, tc.want)
		}
	}
}

func TestSpecRoundTrip(t *testing.T) {
	for _, s := range []Spec{
		{Transient: 0.25},
		{Transient: 0.01, MaxRetries: 5},
		{Transient: 0.1, MaxRetries: 2, Fail: 2, Gap: 77},
	} {
		got, err := ParseSpec(s.String())
		if err != nil {
			t.Fatalf("ParseSpec(%q): %v", s.String(), err)
		}
		if got != s {
			t.Fatalf("round trip %q: got %+v want %+v", s.String(), got, s)
		}
	}
}

// TestPlanDeterminism: two plans with the same seed produce the same
// outcome stream; a different seed produces a different one.
func TestPlanDeterminism(t *testing.T) {
	spec := Spec{Transient: 0.2, MaxRetries: 3, Fail: 2, Gap: 10}
	stream := func(seed int64) []machine.FaultOutcome {
		p := NewPlan(spec, seed)
		p.Bind(64)
		out := make([]machine.FaultOutcome, 200)
		for i := range out {
			out[i] = p.CommRound(machine.RoundInfo{})
		}
		return out
	}
	a, b := stream(7), stream(7)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different fault schedules")
	}
	if reflect.DeepEqual(a, stream(8)) {
		t.Fatal("different seeds produced the identical fault schedule")
	}
}

func TestPlanRespectsBudgets(t *testing.T) {
	spec := Spec{Transient: 1, MaxRetries: 4, Fail: 3, Gap: 5}
	p := NewPlan(spec, 1)
	p.Bind(16)
	fails := 0
	for i := 0; i < 1000; i++ {
		out := p.CommRound(machine.RoundInfo{})
		if out.Retries < 1 || out.Retries > 4 {
			t.Fatalf("round %d: retries %d outside [1, 4]", i, out.Retries)
		}
		if out.FailPE >= 0 {
			fails++
			if out.FailPE >= 16 {
				t.Fatalf("victim %d outside machine of 16", out.FailPE)
			}
		}
	}
	if fails != 3 {
		t.Fatalf("injected %d permanent failures, want exactly 3", fails)
	}
}

func TestLargestHealthyBlock(t *testing.T) {
	cases := []struct {
		n, base  int
		dead     []int
		off, siz int
	}{
		{64, 2, nil, 0, 64},
		{64, 2, []int{0}, 32, 32},
		{64, 2, []int{63}, 0, 32},
		{64, 2, []int{20}, 32, 32},
		{64, 2, []int{10, 40}, 16, 16}, // both halves blocked; [16,32) is the lowest healthy quarter
		{64, 4, nil, 0, 64},
		{64, 4, []int{5}, 16, 16},
		{16, 4, []int{0, 4, 8, 12}, 1, 1},
		{4, 2, []int{0, 1, 2, 3}, 0, 0},
	}
	for _, tc := range cases {
		dead := map[int]bool{}
		for _, d := range tc.dead {
			dead[d] = true
		}
		off, siz := LargestHealthyBlock(tc.n, tc.base, dead)
		if off != tc.off || siz != tc.siz {
			t.Fatalf("LargestHealthyBlock(%d, %d, %v) = (%d, %d), want (%d, %d)",
				tc.n, tc.base, tc.dead, off, siz, tc.off, tc.siz)
		}
		for i := off; i < off+siz; i++ {
			if dead[i] {
				t.Fatalf("block [%d,%d) contains dead PE %d", off, off+siz, i)
			}
		}
	}
}

func TestBlockBase(t *testing.T) {
	if b := BlockBase(mesh.MustNew(16, mesh.Proximity)); b != 4 {
		t.Fatalf("mesh base = %d, want 4", b)
	}
	for _, topo := range []machine.Topology{
		hypercube.MustNew(16), ccc.MustNew(2), shuffle.MustNew(4),
	} {
		if b := BlockBase(topo); b != 2 {
			t.Fatalf("%s base = %d, want 2", topo.Name(), b)
		}
	}
}

// TestSubIsSubcube: on the Gray-coded hypercube an aligned block is a
// genuine subcube — diameter log2(size) — and distances match the
// parent's.
func TestSubIsSubcube(t *testing.T) {
	h := hypercube.MustNew(64)
	s := NewSub(h, 32, 16)
	if s.Size() != 16 || s.Offset() != 32 {
		t.Fatalf("sub size/offset = %d/%d", s.Size(), s.Offset())
	}
	if s.Diameter() != 4 {
		t.Fatalf("subcube of 16 has diameter %d, want 4", s.Diameter())
	}
	for i := 0; i < 16; i++ {
		for j := 0; j < 16; j++ {
			if s.Distance(i, j) != h.Distance(32+i, 32+j) {
				t.Fatalf("distance (%d,%d) diverges from parent", i, j)
			}
		}
	}
}

// TestSubIsSubmesh: an aligned 4^j block of the proximity-ordered mesh is
// a contiguous √-sized submesh (diameter 2(side−1)).
func TestSubIsSubmesh(t *testing.T) {
	m := mesh.MustNew(64, mesh.Proximity)
	s := NewSub(m, 16, 16) // a 4×4 quadrant
	if s.Diameter() != 6 {
		t.Fatalf("4x4 submesh diameter = %d, want 6", s.Diameter())
	}
}

// sortBody returns a body sorting a fixed item set plus a pointer to the
// captured output; the item count is independent of m.Size(), as the
// recovery protocol requires.
func sortBody(vals []int) (func(*machine.M) error, *[]int) {
	out := new([]int)
	return func(m *machine.M) error {
		if m.Size() < len(vals) {
			return ErrNotSurvivable
		}
		regs := colstore.Scatter(m.Size(), vals)
		machine.SortCols(m, regs, func(a, b int) bool { return a < b })
		*out = regs.Gather()
		return nil
	}, out
}

func testTopologies() map[string]machine.Topology {
	return map[string]machine.Topology{
		"mesh":      mesh.MustNew(64, mesh.Proximity),
		"hypercube": hypercube.MustNew(64),
		"ccc":       ccc.MustNew(4),
		"shuffle":   shuffle.MustNew(6),
	}
}

// TestRunCleanMatchesDirect: a nil plan is a plain single-machine run.
func TestRunCleanMatchesDirect(t *testing.T) {
	vals := []int{9, 3, 7, 1, 8, 2, 6, 4, 5, 0, 11, 10}
	for name, topo := range testTopologies() {
		direct := machine.New(topo)
		regs := colstore.Scatter(direct.Size(), vals)
		machine.SortCols(direct, regs, func(a, b int) bool { return a < b })
		want := regs.Gather()

		body, out := sortBody(vals)
		res, err := Run(topo, nil, body)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(*out, want) {
			t.Fatalf("%s: clean Run output %v != direct %v", name, *out, want)
		}
		if res.Stats != direct.Stats() {
			t.Fatalf("%s: clean Run stats %+v != direct %+v", name, res.Stats, direct.Stats())
		}
		if res.Attempts != 1 || res.Transients != 0 || len(res.Failed) != 0 {
			t.Fatalf("%s: clean Run report %v", name, res)
		}
	}
}

// TestRunTransient: transient faults leave outputs bit-identical and
// make the simulated time strictly larger, on every topology.
func TestRunTransient(t *testing.T) {
	vals := make([]int, 16)
	for i := range vals {
		vals[i] = (i * 37) % 100
	}
	for name, topo := range testTopologies() {
		body, out := sortBody(vals)
		clean, err := Run(topo, nil, body)
		if err != nil {
			t.Fatal(err)
		}
		want := append([]int(nil), (*out)...)

		plan := NewPlan(Spec{Transient: 0.1, MaxRetries: 3}, 5)
		res, err := Run(topo, plan, body)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(*out, want) {
			t.Fatalf("%s: faulted output %v != clean %v", name, *out, want)
		}
		if res.Transients == 0 {
			t.Fatalf("%s: schedule injected no transient faults; pick a denser spec", name)
		}
		if res.Stats.Time() <= clean.Stats.Time() {
			t.Fatalf("%s: degraded time %d not strictly larger than clean %d",
				name, res.Stats.Time(), clean.Stats.Time())
		}
		if res.Stats.Rounds != clean.Stats.Rounds+res.RetryRounds {
			t.Fatalf("%s: rounds %d != clean %d + retries %d",
				name, res.Stats.Rounds, clean.Stats.Rounds, res.RetryRounds)
		}
	}
}

// TestRunRecovery: permanent PE failures remap onto a healthy submachine
// and re-run; outputs stay bit-identical, the final machine is a Sub
// excluding every dead PE, and the cumulative cost strictly exceeds a
// clean run on that degraded machine (the aborted attempt and the
// checkpoint-restore route are charged on top of the re-run).
func TestRunRecovery(t *testing.T) {
	vals := make([]int, 16)
	for i := range vals {
		vals[i] = (i * 53) % 97
	}
	for name, topo := range testTopologies() {
		recovered := false
		for seed := int64(1); seed <= 20 && !recovered; seed++ {
			body, out := sortBody(vals)
			if _, err := Run(topo, nil, body); err != nil {
				t.Fatal(err)
			}
			want := append([]int(nil), (*out)...)

			plan := NewPlan(Spec{Fail: 1, Gap: 30}, seed)
			res, err := Run(topo, plan, body)
			if err != nil {
				t.Fatalf("%s seed %d: %v", name, seed, err)
			}
			if len(res.Failed) == 0 {
				continue // schedule ran out of rounds before the failure fired
			}
			recovered = true
			if res.Attempts != 2 {
				t.Fatalf("%s: %d attempts after one failure, want 2", name, res.Attempts)
			}
			if !reflect.DeepEqual(*out, want) {
				t.Fatalf("%s: degraded output %v != clean %v", name, *out, want)
			}
			subClean := machine.New(res.Topo)
			if err := body(subClean); err != nil {
				t.Fatalf("%s: clean re-run on %s: %v", name, res.Topo.Name(), err)
			}
			if res.Stats.Time() <= subClean.Stats().Time() {
				t.Fatalf("%s: degraded time %d not strictly larger than clean degraded-machine time %d",
					name, res.Stats.Time(), subClean.Stats().Time())
			}
			sub, ok := res.Topo.(*Sub)
			if !ok {
				t.Fatalf("%s: final topology %s is not a Sub", name, res.Topo.Name())
			}
			for _, dead := range res.Failed {
				if dead >= sub.Offset() && dead < sub.Offset()+sub.Size() {
					t.Fatalf("%s: dead PE %d inside healthy block", name, dead)
				}
			}
		}
		if !recovered {
			t.Fatalf("%s: no seed in 1..20 exercised a permanent failure", name)
		}
	}
}

// TestRunNotSurvivable: killing PEs until no block can hold the items
// yields ErrNotSurvivable, not a wrong answer.
func TestRunNotSurvivable(t *testing.T) {
	topo := hypercube.MustNew(16)
	vals := make([]int, 16) // needs the whole machine; any failure is fatal
	for i := range vals {
		vals[i] = i
	}
	body, _ := sortBody(vals)
	plan := NewPlan(Spec{Fail: 1, Gap: 5}, 3)
	_, err := Run(topo, plan, body)
	if err == nil {
		t.Fatal("expected ErrNotSurvivable, got success")
	}
}
