package machine_test

import (
	"fmt"
	"math/bits"
	"testing"

	"dyncg/internal/ccc"
	"dyncg/internal/fault"
	"dyncg/internal/hypercube"
	"dyncg/internal/machine"
	"dyncg/internal/mesh"
	"dyncg/internal/shuffle"
)

// ring is a cycle of n PEs: Distance(i, j) = min(|i−j|, n−|i−j|).
type ring struct{ n int }

func (r ring) Size() int     { return r.n }
func (r ring) Name() string  { return fmt.Sprintf("ring[%d]", r.n) }
func (r ring) Diameter() int { return r.n / 2 }
func (r ring) Distance(i, j int) int {
	d := max(i-j, j-i)
	return min(d, r.n-d)
}

// naiveXor is the worst partner distance of a bit-b XOR round, pairs off
// the machine excluded, by a fresh scan.
func naiveXor(t machine.Topology, b int) int {
	n, off, max := t.Size(), 1<<b, 0
	for i := 0; i < n; i++ {
		j := i ^ off
		if j < i || j >= n {
			continue
		}
		if d := t.Distance(i, j); d > max {
			max = d
		}
	}
	return max
}

// naiveShift is the worst partner distance of a round in which PE i
// sends to PE i+off (off ≥ 0), by a fresh scan.
func naiveShift(t machine.Topology, off int) int {
	n, max := t.Size(), 0
	for i := 0; i+off < n; i++ {
		if d := t.Distance(i, i+off); d > max {
			max = d
		}
	}
	return max
}

// TestRoundCostTables checks the machine's lazily filled round-cost table
// against fresh scans on every bundled topology, on fault.Sub blocks and
// on sizes that are not powers of two: every XOR bit (and out-of-range
// bits, which cost 0), shift offsets of either sign, of both kinds (a
// power of two is stored, any other offset is not) and beyond the
// machine (cost 0). Each cost is read twice, so a stored entry must give
// back what the scan gave.
func TestRoundCostTables(t *testing.T) {
	for _, topo := range []machine.Topology{
		mesh.MustNew(64, mesh.Proximity),
		mesh.MustNew(64, mesh.ShuffledRowMajor),
		hypercube.MustNew(64),
		ccc.MustNew(4),
		shuffle.MustNew(6),
		fault.NewSub(mesh.MustNew(256, mesh.Proximity), 64, 64),
		fault.NewSub(hypercube.MustNew(64), 16, 16),
		machine.LineTopo(37),
		ring{n: 50},
	} {
		m := machine.New(topo)
		n := m.Size()
		xor, shift := machine.RoundCostTable(m)
		if len(xor) != m.Bits() || len(shift) != m.Bits() {
			t.Fatalf("%s: table lengths %d/%d, want %d", topo.Name(), len(xor), len(shift), m.Bits())
		}
		for _, c := range append(xor, shift...) {
			if c != -1 {
				t.Fatalf("%s: a fresh machine's table is %v/%v, want all −1", topo.Name(), xor, shift)
			}
		}
		for b := -1; b <= m.Bits()+1; b++ {
			want := 0
			if b >= 0 && b < m.Bits() {
				want = naiveXor(topo, b)
			}
			for pass := 0; pass < 2; pass++ {
				if got := machine.RoundCostXOR(m, b); got != want {
					t.Errorf("%s: xor bit %d (call %d) costs %d, want %d", topo.Name(), b, pass+1, got, want)
				}
			}
		}
		if got := machine.RoundCostXOR(m, 40); got != 0 {
			t.Errorf("%s: xor bit 40 costs %d, want 0", topo.Name(), got)
		}
		for b, c := range xor {
			if c != naiveXor(topo, b) {
				t.Errorf("%s: stored xor[%d] = %d, want %d", topo.Name(), b, c, naiveXor(topo, b))
			}
		}

		stored := make([]bool, m.Bits())
		for _, off := range []int{0, 1, -1, 2, 3, -7, 16, n - 1, n, 2 * n} {
			abs := max(off, -off)
			want := naiveShift(topo, abs)
			for pass := 0; pass < 2; pass++ {
				before := m.Stats().CommSteps
				machine.ChargeShift(m, off, 0)
				if got := int(m.Stats().CommSteps - before); got != want {
					t.Errorf("%s: shift %d (call %d) costs %d, want %d", topo.Name(), off, pass+1, got, want)
				}
			}
			if abs > 0 && abs < n && abs&(abs-1) == 0 {
				stored[bits.TrailingZeros(uint(abs))] = true
			}
		}
		for b, c := range shift {
			want := -1
			if stored[b] {
				want = naiveShift(topo, 1<<b)
			}
			if c != want {
				t.Errorf("%s: stored shift[%d] = %d, want %d", topo.Name(), b, c, want)
			}
		}
	}
}
