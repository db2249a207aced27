// Package keys holds the one map helper the simulator needs: a map's
// keys in ascending order, for deterministic iteration where the order
// reaches an answer, a charged cost or an output.
package keys

import (
	"cmp"
	"slices"
)

// Sorted returns the keys of m in ascending order.
func Sorted[K cmp.Ordered, V any](m map[K]V) []K {
	out := make([]K, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	slices.Sort(out)
	return out
}
