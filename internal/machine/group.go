package machine

// Grouping (§2.6): "this operation is often performed when one set of
// ordered data needs to perform multiple simultaneous searches on
// another set of ordered data. It is typically accomplished ... by
// sorting both sets of ordered data together, performing sort-based
// concurrent reads within strings to determine substrings, and then
// performing a semigroup or parallel prefix operation within the
// substrings."
//
// Group is the direct realisation: every query learns the index of its
// predecessor data item under the given order. It underlies the sector
// searches of Lemma 5.5 and Theorem 5.8 and the point-location step of
// the steady-state hull verification.

// Group performs the simultaneous predecessor searches of the grouping
// operation: pred[q] is the index (into data) of the greatest data item
// ≤ queries[q] under less, or −1 if queries[q] precedes every data item.
// Ties resolve to the data item (data sorts before equal queries).
//
// Cost: one sort plus one parallel prefix — Θ(√n) mesh, Θ(log² n)
// hypercube (Table 1: grouping). Requires len(data)+len(queries) ≤
// m.Size().
func Group[T any](m *M, data, queries []T, less func(a, b T) bool) []int {
	n := m.Size()
	if len(data)+len(queries) > n {
		panic("machine: Group inputs exceed machine size")
	}
	type entry struct {
		v     T
		query bool
		idx   int
	}
	f := GetCols[entry](m, n)
	for i, v := range data {
		f.Set(i, entry{v: v, idx: i})
	}
	for q, v := range queries {
		f.Set(len(data)+q, entry{v: v, query: true, idx: q})
	}
	SortCols(m, f, func(a, b entry) bool {
		if less(a.v, b.v) {
			return true
		}
		if less(b.v, a.v) {
			return false
		}
		if a.query != b.query {
			return !a.query // data before equal queries
		}
		return a.idx < b.idx
	})
	// Parallel prefix: carry the most recent data index.
	carry := GetCols[int](m, n)
	m.ChargeLocal(1)
	for i := 0; i < n; i++ {
		if f.Occ[i] && !f.Val[i].query {
			carry.Set(i, f.Val[i].idx)
		}
	}
	seg := GetScratch[bool](m, n)
	if n > 0 {
		seg[0] = true
	}
	ScanCols(m, carry, seg, Forward, func(a, b int) int { return b })
	PutScratch(m, seg)
	m.ChargeLocal(1)
	pred := make([]int, len(queries))
	for i := range pred {
		pred[i] = -1
	}
	for i := 0; i < n; i++ {
		if f.Occ[i] && f.Val[i].query && carry.Occ[i] {
			pred[f.Val[i].idx] = carry.Val[i]
		}
	}
	PutCols(m, carry)
	PutCols(m, f)
	return pred
}
