package penvelope

// This file implements the retained form of Theorem 3.2: a balanced
// merge tree whose leaves are the per-function piece strings and whose
// internal nodes store the sorted, front-packed envelope of their
// subtree — exactly the intermediate state the bottom-up recursive
// halving of Envelope materialises level by level and then throws away.
// Keeping it resident turns the envelope into a batch-dynamic structure:
// a batch of k leaf changes dirties at most k·log₂(slots) internal
// nodes, and each dirty node is recomputed by one Lemma 3.1 pass
// (mergeLevel) over a scratch block sized to the node's actual piece
// population instead of the full machine — the sublinear update path of
// the batch-dynamic literature (Wang et al.), with the from-scratch
// construction retained as the exact oracle (Rebuild).
//
// Bit-identity argument. mergeLevel is block-relative: side tags, the
// merge order (regLess, a strict total order on (Lo, side, ID) over a
// block's two packed runs), window computation, packing and run
// combination all depend only on the sequence of occupied registers in
// each block, never on the register-file length.
// Re-merging two front-packed sibling strings in a smaller power-of-two
// block therefore yields byte-for-byte the pieces the from-scratch pass
// produces in the full-width block — unless the emitted pieces overflow
// the smaller block, which mergeLevel reports as ErrBlockCapacity and
// mergeNode answers by doubling the block (capped at the from-scratch
// width, where overflow would be a genuine λ under-allocation either
// way).

import (
	"errors"
	"fmt"
	"math/bits"

	"dyncg/internal/colstore"
	"dyncg/internal/dsseq"
	"dyncg/internal/keys"
	"dyncg/internal/machine"
	"dyncg/internal/pieces"
)

// MergeTree is a retained balanced envelope merge tree over a fixed set
// of leaf slots. Slot i holds the piece string of function i (possibly
// empty — deleted or never-inserted functions simply contribute no
// pieces); the root holds the envelope of every occupied slot. The tree
// is bound to the machine that built it only through sizing (slots ×
// stride = machine size); it holds no machine state and may be rebuilt
// or updated on any machine of the same size.
type MergeTree struct {
	kind   pieces.Kind
	stride int // PEs per leaf slot in the from-scratch layout
	// levels[0] are the leaves (len = slots, a power of two);
	// levels[l][b] is the envelope of leaves [b·2^l, (b+1)·2^l).
	levels [][]pieces.Piecewise
}

// TreeUpdate replaces the piece string of one leaf slot. A nil or empty
// F empties the slot (function deletion).
type TreeUpdate struct {
	Slot int
	F    pieces.Piecewise
}

// UpdateStats reports the work of one Update batch.
type UpdateStats struct {
	DirtyLeaves int // distinct leaf slots written
	MergedNodes int // internal nodes recomputed (≤ DirtyLeaves·log₂ slots)
}

// NewMergeTree builds the retained merge tree of fs on machine m in one
// from-scratch Envelope pass, capturing every internal node via the
// per-level snapshot hook. len(fs) is rounded up to the next power of
// two of leaf slots; the extra slots start empty and are real slots — a
// later Update may populate them. Machine sizing is the caller's: m must
// satisfy the same Θ(λ(slots, s)) allocation Envelope needs (MeshPEs /
// CubePEs over the slot count).
func NewMergeTree(m *machine.M, fs []pieces.Piecewise, kind pieces.Kind) (*MergeTree, error) {
	if len(fs) == 0 {
		return nil, fmt.Errorf("penvelope: merge tree needs at least one leaf slot")
	}
	slots := dsseq.NextPow2(len(fs))
	N := m.Size()
	stride := N / slots
	if stride < 1 {
		return nil, fmt.Errorf("penvelope: %d leaf slots need ≥%d PEs, machine has %d: %w",
			slots, slots, N, machine.ErrTooFewPEs)
	}
	t := &MergeTree{kind: kind, stride: stride}
	depth := bits.Len(uint(slots)) - 1 // log₂ slots
	t.levels = make([][]pieces.Piecewise, depth+1)
	t.levels[0] = make([]pieces.Piecewise, slots)
	for i, f := range fs {
		t.levels[0][i] = clonePieces(f)
	}
	for l := 1; l <= depth; l++ {
		t.levels[l] = make([]pieces.Piecewise, slots>>l)
	}
	if slots == 1 {
		// Degenerate tree: the root is the single leaf (Envelope's n = 1
		// path runs no merge levels either).
		return t, t.levels[0][0].Validate()
	}
	// Pass the full slot array so Envelope's own layout (n2 = slots,
	// stride = N/slots) coincides with the tree's.
	if _, err := envelope(m, t.levels[0], kind, t.snap); err != nil {
		return nil, err
	}
	return t, nil
}

// snap is the per-level snapshot hook: after the merge level of the
// given block size, block b of regs holds the sorted, front-packed
// envelope of leaves [b·w, (b+1)·w) where w = block/stride.
func (t *MergeTree) snap(block int, regs colstore.File[envReg]) {
	l := bits.Len(uint(block/t.stride)) - 1
	nodes := t.levels[l]
	for b := range nodes {
		nodes[b] = frontRun(regs, b*block, (b+1)*block)
	}
}

// Slots returns the number of leaf slots.
func (t *MergeTree) Slots() int { return len(t.levels[0]) }

// Stride returns the PEs-per-slot of the from-scratch layout (the
// per-leaf piece capacity).
func (t *MergeTree) Stride() int { return t.stride }

// Root returns the maintained envelope of all occupied leaves (not a
// copy; callers must not mutate it).
func (t *MergeTree) Root() pieces.Piecewise { return t.levels[len(t.levels)-1][0] }

// Update applies a batch of leaf replacements and recomputes exactly the
// dirty root paths, bottom-up one level at a time so a node merges its
// children at most once per batch. The result is bit-identical to a
// from-scratch rebuild over the updated leaves (see the file comment);
// costs are charged to m as the Lemma 3.1 passes actually run, so the
// machine's Stats delta is the simulated incremental cost.
//
// Update validates the whole batch before touching the tree: an invalid
// update (slot out of range, malformed pieces, a leaf exceeding its
// stride capacity) leaves the tree unchanged. An error from a merge pass
// itself (ErrBlockCapacity at full width) can leave sibling nodes of the
// dirty path inconsistent; callers should treat the tree as broken then,
// as the engine in internal/session does.
func (t *MergeTree) Update(m *machine.M, ups []TreeUpdate) (UpdateStats, error) {
	var st UpdateStats
	slots := t.Slots()
	for _, u := range ups {
		if u.Slot < 0 || u.Slot >= slots {
			return st, fmt.Errorf("penvelope: update slot %d out of range [0, %d)", u.Slot, slots)
		}
		if err := u.F.Validate(); err != nil {
			return st, fmt.Errorf("penvelope: update for slot %d invalid: %w", u.Slot, err)
		}
		if len(u.F) > 0 && dsseq.NextPow2(len(u.F)) > t.stride {
			return st, fmt.Errorf("penvelope: update for slot %d has %d pieces, leaf capacity is %d: %w",
				u.Slot, len(u.F), t.stride, machine.ErrTooFewPEs)
		}
	}
	dirty := make(map[int]bool, len(ups))
	for _, u := range ups {
		t.levels[0][u.Slot] = clonePieces(u.F)
		dirty[u.Slot] = true
	}
	st.DirtyLeaves = len(dirty)
	for l := 1; l < len(t.levels); l++ {
		parents := make(map[int]bool, len(dirty))
		for b := range dirty {
			parents[b>>1] = true
		}
		for _, b := range keys.Sorted(parents) {
			v, err := t.mergeNode(m, l, t.levels[l-1][2*b], t.levels[l-1][2*b+1])
			if err != nil {
				return st, fmt.Errorf("penvelope: merge tree node (level %d, block %d): %w", l, b, err)
			}
			t.levels[l][b] = v
			st.MergedNodes++
		}
		dirty = parents
	}
	if err := t.Root().Validate(); err != nil {
		return st, fmt.Errorf("penvelope: merge tree produced invalid root: %w", err)
	}
	return st, nil
}

// mergeNode recomputes one internal node at the given level: one
// Lemma 3.1 pass merging the front-packed strings of its two children in
// a scratch block sized to their piece population, retry-doubling on
// ErrBlockCapacity up to the node's from-scratch width stride·2^level.
func (t *MergeTree) mergeNode(m *machine.M, level int, f, g pieces.Piecewise) (pieces.Piecewise, error) {
	full := t.stride << level
	need := len(f)
	if len(g) > need {
		need = len(g)
	}
	if need < 1 {
		need = 1
	}
	// Both halves must hold their child's string; double once more up
	// front because the merged population commonly exceeds either input.
	block := dsseq.NextPow2(need) * 4
	if block > full {
		block = full
	}
	for {
		out, err := t.mergeOnce(m, f, g, block)
		if err == nil {
			return out, nil
		}
		if errors.Is(err, ErrBlockCapacity) && block < full {
			block *= 2
			continue
		}
		return nil, err
	}
}

// mergeOnce lays the two child strings in the halves of one scratch
// block and runs a single merge level over it.
func (t *MergeTree) mergeOnce(m *machine.M, f, g pieces.Piecewise, block int) (pieces.Piecewise, error) {
	regs := machine.GetCols[envReg](m, block)
	defer machine.PutCols(m, regs)
	for j, p := range f {
		regs.Set(j, envReg{p: p})
	}
	for j, p := range g {
		regs.Set(block/2+j, envReg{p: p})
	}
	window := func(dst, fw, gw pieces.Piecewise) pieces.Piecewise {
		return pieces.AppendMerge(dst, fw, gw, t.kind)
	}
	if err := mergeLevel(m, regs, block, window); err != nil {
		return nil, err
	}
	return frontRun(regs, 0, block), nil
}

// frontRun returns the pieces of the front-packed run that starts at PE
// lo: the occupied registers up to the first empty one or hi.
func frontRun(regs colstore.File[envReg], lo, hi int) pieces.Piecewise {
	var pw pieces.Piecewise
	for i := lo; i < hi && regs.Occ[i]; i++ {
		pw = append(pw, regs.Val[i].p)
	}
	return pw
}

// Rebuild constructs the envelope of the current leaves from scratch on
// machine m (one full Envelope pass over the same layout) without
// touching the retained nodes — the exact correctness oracle for
// incremental updates.
func (t *MergeTree) Rebuild(m *machine.M) (pieces.Piecewise, error) {
	if t.Slots() == 1 {
		return clonePieces(t.levels[0][0]), nil
	}
	return envelope(m, t.levels[0], t.kind, nil)
}

func clonePieces(f pieces.Piecewise) pieces.Piecewise {
	if len(f) == 0 {
		return nil
	}
	return append(pieces.Piecewise(nil), f...)
}
