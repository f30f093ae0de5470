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

// MultiTree is a family of d interior-disjoint d-ary trees over the padded
// node set 1..NP. Node ids 1..N are real receivers; ids N+1..NP are dummies
// that appear only in leaf positions and are skipped by the schedule.
type MultiTree struct {
	// N is the number of real receivers.
	N int
	// D is the tree degree d (and the number of trees).
	D int
	// NP is the padded receiver count d·⌈N/d⌉.
	NP int
	// I is the number of interior positions per tree, NP/d − 1.
	I int
	// Trees[k][p-1] is the node id at position p of tree T_k.
	Trees [][]core.NodeID
	// pos[k][id] is the position of node id in tree T_k (ids 1..NP).
	pos [][]int
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

// newMultiTree allocates an empty family; constructions fill Trees and then
// call index().
func newMultiTree(n, d int) *MultiTree {
	np := Padded(n, d)
	m := &MultiTree{
		N:     n,
		D:     d,
		NP:    np,
		I:     np/d - 1,
		Trees: make([][]core.NodeID, d),
		pos:   make([][]int, d),
	}
	for k := 0; k < d; k++ {
		m.Trees[k] = make([]core.NodeID, np)
		m.pos[k] = make([]int, np+1)
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
	return int(id) > m.N
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
//  1. each tree is a permutation of 1..NP;
//  2. the trees are interior-disjoint (each node is interior in at most one
//     tree, and interior in exactly one when it belongs to G_0..G_{d-1});
//  3. the positions of each node across the d trees are pairwise distinct
//     modulo d (collision-freedom of the round-robin schedule);
//  4. dummy nodes occupy only leaf positions.
func (m *MultiTree) Validate() error {
	seen := make([]bool, m.NP+1)
	for k := 0; k < m.D; k++ {
		if len(m.Trees[k]) != m.NP {
			return fmt.Errorf("tree %d has %d positions, want %d", k, len(m.Trees[k]), m.NP)
		}
		for i := range seen {
			seen[i] = false
		}
		for p, id := range m.Trees[k] {
			if id < 1 || int(id) > m.NP {
				return fmt.Errorf("tree %d position %d holds invalid id %d", k, p+1, id)
			}
			if seen[id] {
				return fmt.Errorf("tree %d holds id %d twice", k, id)
			}
			seen[id] = true
		}
	}
	for id := core.NodeID(1); int(id) <= m.NP; id++ {
		interiorIn := -1
		modSeen := make(map[int]int, m.D)
		for k := 0; k < m.D; k++ {
			p := m.pos[k][id]
			if p < 1 || p > m.NP {
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
			if prev, dup := modSeen[p%m.D]; dup {
				return fmt.Errorf("id %d positions %d and %d congruent mod %d", id, prev, p, m.D)
			}
			modSeen[p%m.D] = p
		}
	}
	return nil
}

// Neighbors returns each real node's protocol neighbor set: its parent in
// every tree plus its children in the tree where it is interior. This is the
// quantity bounded by 2d in the paper, so each list is a 2d-entry row of one
// array, filled tree by tree (parent, then children) and deduplicated by
// scanning it.
func (m *MultiTree) Neighbors() map[core.NodeID][]core.NodeID {
	out := make(map[core.NodeID][]core.NodeID, m.N)
	rows := make([]core.NodeID, m.N*2*m.D)
	for id := core.NodeID(1); int(id) <= m.N; id++ {
		lo := (int(id) - 1) * 2 * m.D
		list := rows[lo : lo : lo+2*m.D]
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
		out[id] = list
	}
	return out
}

// Height returns h: the maximum depth of any position, minus nothing — the
// paper's h where h+1 is the depth of the trees counting the source level.
func (m *MultiTree) Height() int {
	return Depth(m.NP, m.D)
}
