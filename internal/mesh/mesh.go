// Package mesh models the two-dimensional mesh-connected computer of
// §2.2: n = 4^q processors arranged as a √n × √n lattice, each PE linked
// to its row/column neighbours. PEs are numbered 0 … n−1 by one of the
// four indexing schemes of Figure 2 — row-major, shuffled row-major,
// snake-like, and proximity (Peano–Hilbert) order. The paper's algorithms
// assume proximity order, whose two key properties (§2.2) are:
//
//  1. consecutively indexed PEs are lattice neighbours, and
//  2. the mesh subdivides recursively into submeshes of consecutively
//     indexed PEs.
//
// Shuffled row-major shares property 2 and the "Θ(2^{b/2}) distance for
// index-offset 2^b" property that makes bitonic sort run in Θ(√n) total
// mesh time; proximity order additionally has property 1.
package mesh

import (
	"fmt"
	"math"
)

// Indexing is one of the PE-numbering schemes of Figure 2.
type Indexing int

// The indexing schemes of Figure 2.
const (
	RowMajor Indexing = iota
	ShuffledRowMajor
	Snake
	Proximity // Peano–Hilbert order; the paper's default (§2.2)
)

// String returns the scheme name.
func (ix Indexing) String() string {
	switch ix {
	case RowMajor:
		return "row-major"
	case ShuffledRowMajor:
		return "shuffled-row-major"
	case Snake:
		return "snake-like"
	case Proximity:
		return "proximity"
	}
	return fmt.Sprintf("Indexing(%d)", int(ix))
}

// Mesh is a √n × √n mesh-connected computer with a chosen indexing.
type Mesh struct {
	n    int // number of PEs; a power of 4
	side int // √n
	ix   Indexing

	toGrid [][2]int // index → (row, col)
	fromXY []int    // row*side+col → index
}

// New returns a mesh of size n (n must be a positive power of 4) with the
// given indexing scheme.
func New(n int, ix Indexing) (*Mesh, error) {
	if n <= 0 || !isPow4(n) {
		return nil, fmt.Errorf("mesh: size %d is not a positive power of 4", n)
	}
	side := int(math.Round(math.Sqrt(float64(n))))
	m := &Mesh{n: n, side: side, ix: ix,
		toGrid: make([][2]int, n), fromXY: make([]int, n)}
	for i := 0; i < n; i++ {
		var r, c int
		switch ix {
		case RowMajor:
			r, c = i/side, i%side
		case Snake:
			r = i / side
			c = i % side
			if r%2 == 1 {
				c = side - 1 - c
			}
		case ShuffledRowMajor:
			r, c = deinterleave(i)
		case Proximity:
			r, c = hilbertD2XY(side, i)
		}
		m.toGrid[i] = [2]int{r, c}
		m.fromXY[r*side+c] = i
	}
	return m, nil
}

// MustNew is New but panics on error (for tests and fixed-size callers).
func MustNew(n int, ix Indexing) *Mesh {
	m, err := New(n, ix)
	if err != nil {
		panic(err)
	}
	return m
}

func isPow4(n int) bool {
	for n > 1 {
		if n%4 != 0 {
			return false
		}
		n /= 4
	}
	return n == 1
}

// Size returns the number of PEs.
func (m *Mesh) Size() int { return m.n }

// Side returns √n.
func (m *Mesh) Side() int { return m.side }

// Name implements the topology interface of internal/machine.
func (m *Mesh) Name() string {
	return fmt.Sprintf("mesh[%dx%d,%s]", m.side, m.side, m.ix)
}

// Grid returns the (row, col) lattice position of PE i.
func (m *Mesh) Grid(i int) (row, col int) {
	g := m.toGrid[i]
	return g[0], g[1]
}

// IndexAt returns the PE index at lattice position (row, col).
func (m *Mesh) IndexAt(row, col int) int { return m.fromXY[row*m.side+col] }

// Distance returns the number of communication links on a shortest path
// between PEs i and j: the Manhattan distance of their lattice positions.
func (m *Mesh) Distance(i, j int) int {
	a, b := m.toGrid[i], m.toGrid[j]
	return abs(a[0]-b[0]) + abs(a[1]-b[1])
}

// Diameter returns the communication diameter 2(√n − 1) = Θ(√n) (§2.2).
func (m *Mesh) Diameter() int { return 2 * (m.side - 1) }

// MaxDistanceForXorBit returns max over i of Distance(i, i XOR 2^b) — the
// lock-step cost of a SIMD round in which every PE exchanges with its
// bit-b partner, the communication pattern of bitonic sort/merge and of
// hypercube-style prefix and broadcast. Under shuffled row-major and
// proximity indexing this is Θ(2^{b/2}), which is what makes bitonic sort
// cost Θ(√n) total on the mesh (§2.2 discussion; Table 1).
func (m *Mesh) MaxDistanceForXorBit(b int) int {
	off := 1 << b
	max := 0
	for i := 0; i < m.n; i++ {
		j := i ^ off
		if j < i || j >= m.n {
			continue
		}
		if d := m.Distance(i, j); d > max {
			max = d
		}
	}
	return max
}

// Neighbors returns the lattice neighbours of PE i (2 to 4 PEs).
func (m *Mesh) Neighbors(i int) []int {
	r, c := m.Grid(i)
	var out []int
	if r > 0 {
		out = append(out, m.IndexAt(r-1, c))
	}
	if r < m.side-1 {
		out = append(out, m.IndexAt(r+1, c))
	}
	if c > 0 {
		out = append(out, m.IndexAt(r, c-1))
	}
	if c < m.side-1 {
		out = append(out, m.IndexAt(r, c+1))
	}
	return out
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// deinterleave splits the bits of i into row (odd bit positions) and col
// (even bit positions): the shuffled row-major order of Figure 2b.
func deinterleave(i int) (row, col int) {
	for b := 0; i>>(2*b) != 0; b++ {
		col |= ((i >> (2 * b)) & 1) << b
		row |= ((i >> (2*b + 1)) & 1) << b
	}
	return
}

// hilbertD2XY converts a distance d along the Hilbert curve of a
// side×side grid (side a power of two) to grid coordinates. This realises
// the proximity order of Figure 2d.
func hilbertD2XY(side, d int) (row, col int) {
	rx, ry := 0, 0
	x, y := 0, 0
	t := d
	for s := 1; s < side; s *= 2 {
		rx = 1 & (t / 2)
		ry = 1 & (t ^ rx)
		// Rotate quadrant.
		if ry == 0 {
			if rx == 1 {
				x = s - 1 - x
				y = s - 1 - y
			}
			x, y = y, x
		}
		x += s * rx
		y += s * ry
		t /= 4
	}
	return y, x
}

// Render returns an ASCII rendering of the index layout, reproducing the
// panels of Figure 2 for small meshes.
func (m *Mesh) Render() string {
	out := ""
	width := len(fmt.Sprint(m.n - 1))
	for r := 0; r < m.side; r++ {
		for c := 0; c < m.side; c++ {
			out += fmt.Sprintf("%*d ", width, m.IndexAt(r, c))
		}
		out += "\n"
	}
	return out
}
