package machine

// Edge-case coverage for the routing primitives: shifts whose magnitude
// leaves the block, register files with no occupied entries, and the
// degenerate single-PE machine. These paths carry no data but must still
// charge their rounds identically (a shift with nothing to move is still
// one lock-step round in the simulated cost model).

import (
	"testing"

	"dyncg/internal/colstore"
	"dyncg/internal/hypercube"
)

func TestShiftWithinDeltaBeyondBlock(t *testing.T) {
	m := New(hypercube.MustNew(16))
	regs := colstore.New[int](16)
	for i := range regs.Val {
		regs.Set(i, i)
	}
	for _, delta := range []int{4, 5, 16, -4, -16} {
		before := m.Stats()
		out := ShiftWithinCols(m, regs, 4, delta) // |delta| ≥ block: nothing survives
		after := m.Stats()
		for i, ok := range out.Occ {
			if ok {
				t.Errorf("delta=%d: out[%d] occupied, want all empty (transfer left its block)", delta, i)
			}
		}
		if after.Rounds != before.Rounds+1 {
			t.Errorf("delta=%d: charged %d rounds, want exactly 1", delta, after.Rounds-before.Rounds)
		}
		if after.Messages != before.Messages {
			t.Errorf("delta=%d: charged %d messages, want 0", delta, after.Messages-before.Messages)
		}
		PutCols(m, out)
	}
}

func TestShiftWithinAllNone(t *testing.T) {
	m := New(hypercube.MustNew(8))
	regs := colstore.New[int](8) // all empty
	before := m.Stats()
	out := ShiftWithinCols(m, regs, 8, 1)
	after := m.Stats()
	for i, ok := range out.Occ {
		if ok {
			t.Errorf("out[%d] occupied, want all empty", i)
		}
	}
	if after.Rounds != before.Rounds+1 || after.Messages != before.Messages {
		t.Errorf("all-empty shift: rounds+%d msgs+%d, want rounds+1 msgs+0",
			after.Rounds-before.Rounds, after.Messages-before.Messages)
	}
	PutCols(m, out)
}

func TestRouteAllNone(t *testing.T) {
	m := New(hypercube.MustNew(8))
	regs := colstore.New[int](8)
	dest := []int{7, 6, 5, 4, 3, 2, 1, 0}
	before := m.Stats()
	RouteCols(m, regs, dest)
	after := m.Stats()
	for i, ok := range regs.Occ {
		if ok {
			t.Errorf("regs[%d] occupied after routing an empty file", i)
		}
	}
	if after.Rounds != before.Rounds+1 || after.Messages != before.Messages {
		t.Errorf("all-empty route: rounds+%d msgs+%d, want rounds+1 msgs+0",
			after.Rounds-before.Rounds, after.Messages-before.Messages)
	}
}

func TestRouteDropAll(t *testing.T) {
	m := New(hypercube.MustNew(4))
	regs := colstore.Scatter(4, []int{1, 2, 3, 4})
	RouteCols(m, regs, []int{-1, -1, -1, -1})
	for i, ok := range regs.Occ {
		if ok {
			t.Errorf("regs[%d] occupied, want dropped (dest −1)", i)
		}
	}
}

// TestSinglePEShiftRoute covers the n=1 cases of the routing primitives
// (the general n=1 primitive sweep lives in machine_test.go).
func TestSinglePEShiftRoute(t *testing.T) {
	m := New(hypercube.MustNew(1))
	regs := colstore.Scatter(1, []int{42})

	out := ShiftWithinCols(m, regs, 1, 0) // self-shift: the value stays
	if v, ok := out.Get(0); !ok || v != 42 {
		t.Errorf("n=1 self-shift: got (%d, %v), want 42", v, ok)
	}
	PutCols(m, out)

	out = ShiftWithinCols(m, regs, 1, 1) // off the machine
	if out.Occ[0] {
		t.Errorf("n=1 shift by 1: got %d, want empty", out.Val[0])
	}
	PutCols(m, out)

	RouteCols(m, regs, []int{0})
	if v, ok := regs.Get(0); !ok || v != 42 {
		t.Errorf("n=1 identity route: got (%d, %v), want 42", v, ok)
	}

	seg := WholeMachine(1)
	ScanCols(m, regs, seg, Forward, intMin)
	SemigroupCols(m, regs, seg, intMin)
	CompactCols(m, regs, seg)
	SortCols(m, regs, intLess)
	if v, ok := regs.Get(0); !ok || v != 42 {
		t.Errorf("n=1 primitives disturbed the register: got (%d, %v), want 42", v, ok)
	}
}
