// Package shuffle models the shuffle-exchange network, the second
// "other architecture" named by the paper's introduction alongside the
// cube-connected cycles.
//
// The network has n = 2^q nodes; node v links to v ⊕ 1 (the *exchange*
// edge) and to rol(v) / ror(v) (the perfect-*shuffle* edges, a one-bit
// cyclic rotation of the q-bit address). Like the CCC it has constant
// degree (≤ 3) and Θ(log n) diameter, and it implements machine.Topology
// so the entire algorithm suite runs on it unchanged, with distances
// from a precomputed BFS table.
package shuffle

import "fmt"

// SE is a shuffle-exchange network of size 2^q.
type SE struct {
	q    int
	n    int
	dist [][]uint8
}

// New returns a shuffle-exchange network with n = 2^q nodes (q ≥ 1,
// n ≤ 2^13 to keep the BFS table modest).
func New(q int) (*SE, error) {
	if q < 1 || q > 13 {
		return nil, fmt.Errorf("shuffle: q=%d out of range [1, 13]", q)
	}
	s := &SE{q: q, n: 1 << q}
	s.precompute()
	return s, nil
}

// MustNew is New but panics on error.
func MustNew(q int) *SE {
	s, err := New(q)
	if err != nil {
		panic(err)
	}
	return s
}

// rol rotates the q-bit address left by one.
func (s *SE) rol(v int) int {
	return ((v << 1) | (v >> (s.q - 1))) & (s.n - 1)
}

// ror rotates the q-bit address right by one.
func (s *SE) ror(v int) int {
	return ((v >> 1) | ((v & 1) << (s.q - 1))) & (s.n - 1)
}

// Neighbors returns the exchange and (un)shuffle links of v.
func (s *SE) Neighbors(v int) []int {
	out := []int{v ^ 1}
	if r := s.rol(v); r != v && r != v^1 {
		out = append(out, r)
	}
	if r := s.ror(v); r != v && r != v^1 && r != s.rol(v) {
		out = append(out, r)
	}
	return out
}

func (s *SE) precompute() {
	s.dist = make([][]uint8, s.n)
	for src := 0; src < s.n; src++ {
		d := make([]uint8, s.n)
		for i := range d {
			d[i] = 0xFF
		}
		d[src] = 0
		queue := []int{src}
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			for _, u := range s.Neighbors(v) {
				if d[u] == 0xFF {
					d[u] = d[v] + 1
					queue = append(queue, u)
				}
			}
		}
		s.dist[src] = d
	}
}

// Size returns 2^q.
func (s *SE) Size() int { return s.n }

// Name implements machine.Topology.
func (s *SE) Name() string { return fmt.Sprintf("shuffle-exchange[2^%d]", s.q) }

// Distance implements machine.Topology.
func (s *SE) Distance(i, j int) int { return int(s.dist[i][j]) }

// Diameter implements machine.Topology: Θ(log n) (≈ 2q − 1).
func (s *SE) Diameter() int {
	max := 0
	for _, row := range s.dist {
		for _, d := range row {
			if int(d) > max {
				max = int(d)
			}
		}
	}
	return max
}
