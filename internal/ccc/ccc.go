// Package ccc models the cube-connected cycles network, the architecture
// the paper's introduction singles out as a further target: "It is
// possible that these algorithms can be implemented on other
// architectures, such as the cube-connected cycles or shuffle-exchange
// network, to give efficient algorithms for these architectures."
//
// A CCC(q) replaces every node of a q-dimensional hypercube with a cycle
// of q processors; processor (w, i) — cycle w ∈ {0,1}^q, position
// i ∈ [0, q) — links to its cycle neighbours (w, i±1 mod q) and across
// the cube dimension i to (w ⊕ 2^i, i). Degree is 3 regardless of size,
// the property that made CCC attractive for VLSI.
//
// The package implements the machine.Topology interface, so every
// algorithm in this repository runs on it unchanged; shortest-path
// distances are precomputed by BFS (the machine charges rounds by
// worst-case partner distance exactly as for the mesh and hypercube).
// Sizes are q·2^q, a power of two when q is: q ∈ {1, 2, 4, 8} give
// 2, 8, 64, 2048 PEs.
package ccc

import "fmt"

// CCC is a cube-connected cycles network of size q·2^q.
type CCC struct {
	q    int
	n    int
	dist [][]uint8 // BFS shortest-path table (diameter < 256 always)
}

// New returns a CCC(q) for q in {1, 2, 4, 8} (so the size q·2^q is a
// power of two, as the machine's block primitives require).
func New(q int) (*CCC, error) {
	switch q {
	case 1, 2, 4, 8:
	default:
		return nil, fmt.Errorf("ccc: q=%d not supported (need q ∈ {1,2,4,8} for power-of-two size)", q)
	}
	n := q << q
	c := &CCC{q: q, n: n}
	c.precompute()
	return c, nil
}

// MustNew is New but panics on error.
func MustNew(q int) *CCC {
	c, err := New(q)
	if err != nil {
		panic(err)
	}
	return c
}

// id maps (cycle, position) to the linear PE index.
func (c *CCC) id(w, i int) int { return w*c.q + i }

// Neighbors returns the three (two for q = 1) linked PEs of index v.
func (c *CCC) Neighbors(v int) []int {
	w, i := v/c.q, v%c.q
	out := []int{
		c.id(w, (i+1)%c.q),
		c.id(w^(1<<i), i),
	}
	if c.q > 2 {
		out = append(out, c.id(w, (i+c.q-1)%c.q))
	} else if c.q == 2 {
		// (i+1)%2 == (i−1)%2: the cycle of length two has one cycle edge.
	}
	return out
}

// precompute fills the all-pairs distance table by BFS from every node
// (one-time O(n²) setup; the machine caches per-pattern costs on top).
func (c *CCC) precompute() {
	c.dist = make([][]uint8, c.n)
	for s := 0; s < c.n; s++ {
		d := make([]uint8, c.n)
		for i := range d {
			d[i] = 0xFF
		}
		d[s] = 0
		queue := []int{s}
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			for _, u := range c.Neighbors(v) {
				if d[u] == 0xFF {
					d[u] = d[v] + 1
					queue = append(queue, u)
				}
			}
		}
		c.dist[s] = d
	}
}

// Size returns q·2^q.
func (c *CCC) Size() int { return c.n }

// Q returns the cycle length / cube dimension.
func (c *CCC) Q() int { return c.q }

// Name implements machine.Topology.
func (c *CCC) Name() string { return fmt.Sprintf("ccc[q=%d,n=%d]", c.q, c.n) }

// Distance implements machine.Topology: BFS shortest-path hops.
func (c *CCC) Distance(i, j int) int { return int(c.dist[i][j]) }

// Diameter implements machine.Topology: the CCC diameter is
// Θ(q) = Θ(log n) — max over the precomputed table.
func (c *CCC) Diameter() int {
	max := 0
	for _, row := range c.dist {
		for _, d := range row {
			if int(d) > max {
				max = int(d)
			}
		}
	}
	return max
}
