package machine

// Test hooks shared with the external machine_test package, whose
// round-cost test covers fault.Sub blocks (internal/fault imports this
// package, so the internal test package cannot import it back).
var RoundCostXOR = (*M).xorRoundCost

// RoundCostTable returns the machine's round-cost table: the xor and
// shift slices, −1 where no round of that pattern has been charged.
func RoundCostTable(m *M) (xor, shift []int) { return m.xor, m.shift }

// LineTopo is the linear array of any size from scanref_test.go.
type LineTopo = lineTopo
