// Package hypercube models the hypercube computer of §2.3: n = 2^q PEs
// whose node numbers are q-bit strings, with a bidirectional link between
// nodes whose numbers differ in exactly one bit.
//
// Following the paper, PEs are *labelled* not by node number but by the
// binary-reflected Gray code ordering G_q, under which consecutively
// labelled PEs are adjacent in the hypercube and every aligned block of
// 2^j consecutive labels forms a subcube (§2.3). A "string" of processors
// is a set of consecutively labelled PEs.
package hypercube

import (
	"fmt"
	"math/bits"
)

// Cube is a hypercube of size n = 2^q with Gray-code PE labelling.
type Cube struct {
	n   int
	dim int
}

// New returns a hypercube of size n (a positive power of two).
func New(n int) (*Cube, error) {
	if n <= 0 || n&(n-1) != 0 {
		return nil, fmt.Errorf("hypercube: size %d is not a positive power of 2", n)
	}
	return &Cube{n: n, dim: bits.Len(uint(n)) - 1}, nil
}

// MustNew is New but panics on error.
func MustNew(n int) *Cube {
	c, err := New(n)
	if err != nil {
		panic(err)
	}
	return c
}

// Size returns the number of PEs.
func (c *Cube) Size() int { return c.n }

// Dim returns q = log₂ n, the dimension and communication diameter (§2.3).
func (c *Cube) Dim() int { return c.dim }

// Name implements the topology interface of internal/machine.
func (c *Cube) Name() string { return fmt.Sprintf("hypercube[2^%d]", c.dim) }

// Gray returns the node number of the PE with label j: the binary
// reflected Gray code G(j) = j XOR (j >> 1) (§2.3's recursive definition
// in closed form).
func Gray(j int) int { return j ^ (j >> 1) }

// GrayInverse returns the label of the node with number g.
func GrayInverse(g int) int {
	j := 0
	for g != 0 {
		j ^= g
		g >>= 1
	}
	return j
}

// Node returns the node number of PE label j.
func (c *Cube) Node(j int) int { return Gray(j) }

// Label returns the PE label of node number node.
func (c *Cube) Label(node int) int { return GrayInverse(node) }

// Distance returns the number of communication links on a shortest path
// between the PEs with labels i and j: the Hamming distance of their node
// numbers.
func (c *Cube) Distance(i, j int) int {
	return bits.OnesCount(uint(Gray(i) ^ Gray(j)))
}

// Diameter returns log₂ n (§2.3).
func (c *Cube) Diameter() int { return c.dim }

// MaxDistanceForXorBit returns max over labels i of Distance(i, i⊕2^b).
// In Gray labelling, labels differing in one bit map to nodes differing in
// at most two bits, so every bitonic exchange round costs O(1) hops and a
// full bitonic sort costs Θ(log² n) — the Table 1 bound.
func (c *Cube) MaxDistanceForXorBit(b int) int {
	off := 1 << b
	max := 0
	for i := 0; i < c.n; i++ {
		j := i ^ off
		if j < i || j >= c.n {
			continue
		}
		if d := c.Distance(i, j); d > max {
			max = d
		}
	}
	return max
}

// Neighbors returns the labels of the PEs adjacent to label i.
func (c *Cube) Neighbors(i int) []int {
	node := Gray(i)
	out := make([]int, 0, c.dim)
	for b := 0; b < c.dim; b++ {
		out = append(out, GrayInverse(node^(1<<b)))
	}
	return out
}
