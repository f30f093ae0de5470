package multitree

import (
	"fmt"

	"streamcast/internal/core"
)

// Construction selects one of the paper's two interior-disjoint tree
// construction algorithms.
type Construction int

const (
	// Structured is the rotation-based construction of Section 2.2.1.
	Structured Construction = iota
	// Greedy is the parity-based construction of Section 2.2.2.
	Greedy
)

// String implements fmt.Stringer.
func (c Construction) String() string {
	switch c {
	case Structured:
		return "structured"
	case Greedy:
		return "greedy"
	default:
		return fmt.Sprintf("Construction(%d)", int(c))
	}
}

// MultiTree is a family of d interior-disjoint d-ary trees over NP padded
// positions. Every position holds a node id; a mask marks which ids are
// padding dummies, which appear only in leaf positions and are skipped by the
// schedule. A static construction places ids 1..NP and masks ids N+1..NP; a
// churned family (LiveScheme) keeps one id per member it ever created, so its
// live real ids are scattered over a larger id space.
type MultiTree struct {
	// N is the number of real receivers.
	N int
	// D is the tree degree d (and the number of trees).
	D int
	// NP is the padded receiver count: d·⌈N/d⌉ for a static construction.
	NP int
	// I is the number of interior positions per tree, NP/d − 1.
	I int
	// Trees[k][p-1] is the node id at position p of tree T_k.
	Trees [][]core.NodeID
	// pos[k][id] is the position of node id in tree T_k, 0 for an id the
	// trees no longer hold.
	pos [][]int
	// dummy[id] marks a padding id; len(dummy)−1 is the largest id.
	dummy []bool
}

// Padded returns the padded receiver count for n receivers and degree d.
func Padded(n, d int) int {
	return d * ((n + d - 1) / d)
}

// ParentPos returns the position of the parent of position p (0 is the
// source).
func ParentPos(p, d int) int {
	return (p - 1) / d
}

// ChildPos returns the position of the c-th child (0-based) of position p.
func ChildPos(p, c, d int) int {
	return d*p + 1 + c
}

// ChildSlot returns the child index (0..d-1, left to right) of position p
// under its parent.
func ChildSlot(p, d int) int {
	return (p - 1) % d
}

// Depth returns the number of edges from the source to position p.
func Depth(p, d int) int {
	depth := 0
	for p > 0 {
		p = ParentPos(p, d)
		depth++
	}
	return depth
}

// newMultiTree allocates an empty family of n real ids 1..n over np
// positions; constructions fill Trees and then call index().
func newMultiTree(n, d, np int) *MultiTree {
	m := &MultiTree{
		N:     n,
		D:     d,
		NP:    np,
		I:     np/d - 1,
		Trees: make([][]core.NodeID, d),
		pos:   make([][]int, d),
		dummy: make([]bool, np+1),
	}
	for k := 0; k < d; k++ {
		m.Trees[k] = make([]core.NodeID, np)
		m.pos[k] = make([]int, np+1)
	}
	for id := n + 1; id <= np; id++ {
		m.dummy[id] = true
	}
	return m
}

// index rebuilds the node-to-position maps from Trees.
func (m *MultiTree) index() {
	for k := 0; k < m.D; k++ {
		for p, id := range m.Trees[k] {
			m.pos[k][id] = p + 1
		}
	}
}

// Pos returns the position of node id in tree k (1..NP).
func (m *MultiTree) Pos(k int, id core.NodeID) int {
	return m.pos[k][id]
}

// IsDummy reports whether the node id is a padding dummy.
func (m *MultiTree) IsDummy(id core.NodeID) bool {
	return m.dummy[id]
}

// New builds an interior-disjoint tree family for n receivers with degree d
// using the given construction.
func New(n, d int, c Construction) (*MultiTree, error) {
	if n < 1 {
		return nil, fmt.Errorf("multitree: n must be >= 1, got %d", n)
	}
	if d < 2 {
		return nil, fmt.Errorf("multitree: degree must be >= 2, got %d", d)
	}
	var m *MultiTree
	switch c {
	case Structured:
		m = buildStructured(n, d)
	case Greedy:
		m = buildGreedy(n, d)
	default:
		return nil, fmt.Errorf("multitree: unknown construction %d", int(c))
	}
	m.index()
	if err := m.Validate(); err != nil {
		return nil, fmt.Errorf("multitree: %s construction produced invalid trees: %w", c, err)
	}
	return m, nil
}

// Validate checks every structural invariant the schedule relies on:
//  1. each tree holds NP distinct ids, indexed by pos, and every tree holds
//     the same ids;
//  2. the trees are interior-disjoint (each node is interior in at most one
//     tree);
//  3. the positions of each node across the d trees are pairwise distinct
//     modulo d (collision-freedom of the round-robin schedule);
//  4. dummy nodes occupy only leaf positions, and the N real ids all hold
//     positions.
func (m *MultiTree) Validate() error {
	ids := len(m.dummy)
	seen := make([]bool, ids)
	for k, tree := range m.Trees {
		if len(tree) != m.NP {
			return fmt.Errorf("tree %d has %d positions, want %d", k, len(tree), m.NP)
		}
		clear(seen)
		for p, id := range tree {
			if id < 1 || int(id) >= ids {
				return fmt.Errorf("tree %d position %d holds invalid id %d", k, p+1, id)
			}
			if seen[id] {
				return fmt.Errorf("tree %d holds id %d twice", k, id)
			}
			seen[id] = true
			if q := m.pos[k][id]; q != p+1 {
				return fmt.Errorf("tree %d position %d holds id %d, indexed at position %d", k, p+1, id, q)
			}
		}
	}
	// byResidue[r] is the id's position ≡ r (mod d) seen so far, 0 for none.
	byResidue := make([]int, m.D)
	placed := 0
	for _, id := range m.Trees[0] {
		interiorIn := -1
		clear(byResidue)
		for k := 0; k < m.D; k++ {
			p := m.pos[k][id]
			if p < 1 || p > m.NP || m.Trees[k][p-1] != id {
				return fmt.Errorf("id %d missing from tree %d", id, k)
			}
			if p <= m.I {
				if m.IsDummy(id) {
					return fmt.Errorf("dummy id %d is interior in tree %d", id, k)
				}
				if interiorIn >= 0 {
					return fmt.Errorf("id %d interior in trees %d and %d", id, interiorIn, k)
				}
				interiorIn = k
			}
			if prev := byResidue[p%m.D]; prev != 0 {
				return fmt.Errorf("id %d positions %d and %d congruent mod %d", id, prev, p, m.D)
			}
			byResidue[p%m.D] = p
		}
		if !m.IsDummy(id) {
			placed++
		}
	}
	real := 0
	for _, dummy := range m.dummy[1:] {
		if !dummy {
			real++
		}
	}
	if placed != m.N || real != m.N {
		return fmt.Errorf("%d real ids, %d of them placed, want N=%d", real, placed, m.N)
	}
	return nil
}

// EachNeighbors yields each real node's protocol neighbor set by ascending id
// (core.Scheme.EachNeighbors): its parent in every tree plus its children in
// the tree where it is interior, at most 2d, in one reused buffer.
func (m *MultiTree) EachNeighbors(yield func(id core.NodeID, list []core.NodeID)) {
	buf := make([]core.NodeID, 0, 2*m.D)
	for id := core.NodeID(1); int(id) < len(m.dummy); id++ {
		if !m.IsDummy(id) {
			yield(id, m.appendNeighbors(buf[:0], id))
		}
	}
}

// MaxNeighbors is core.MaxNeighbors: the walk, with a closure that stays on
// the stack here and would cost two allocations through an interface.
func (m *MultiTree) MaxNeighbors() int {
	worst := 0
	m.EachNeighbors(func(_ core.NodeID, list []core.NodeID) { worst = max(worst, len(list)) })
	return worst
}

// appendNeighbors appends real node id's neighbor list: tree by tree, its
// parent, then its real children where it is interior, deduplicated by
// scanning the list.
func (m *MultiTree) appendNeighbors(list []core.NodeID, id core.NodeID) []core.NodeID {
	for k := 0; k < m.D; k++ {
		p := m.pos[k][id]
		pp := ParentPos(p, m.D)
		if pp == 0 {
			list = core.AppendNeighbor(list, core.SourceID)
		} else {
			list = core.AppendNeighbor(list, m.Trees[k][pp-1])
		}
		if p <= m.I {
			for c := 0; c < m.D; c++ {
				child := m.Trees[k][ChildPos(p, c, m.D)-1]
				if !m.IsDummy(child) {
					list = core.AppendNeighbor(list, child)
				}
			}
		}
	}
	return list
}

// Height returns h: the maximum depth of any position, minus nothing — the
// paper's h where h+1 is the depth of the trees counting the source level.
func (m *MultiTree) Height() int {
	return Depth(m.NP, m.D)
}
