package multitree

import "streamcast/internal/core"

// buildGreedy implements the Greedy Disjoint Tree Construction of
// Section 2.2.2.
//
// Every node id i has parity p_i = (i−1) mod d, which determines the child
// slot it occupies in each tree: node i sits in child slot (p_i − k) mod d of
// tree T_k, i.e. in a position p with parity(p + k − 1 mod d) = p_i. Tree
// T_0 is the identity placement. For tree T_k (k ≥ 1), interior positions
// are filled in breadth-first order with the smallest id of the required
// parity that has never served as an interior node in any earlier tree, then
// leaf positions are filled with the smallest remaining id of the required
// parity.
//
// Deviation from the paper, documented in DESIGN.md: the paper restricts
// interior candidates of T_k to the id block G_k = {kI+1..(k+1)I}, which is
// only well-defined when I ≡ 1 (mod d) — otherwise G_k can lack a node of a
// required parity (e.g. N=9, d=3). Selecting the smallest never-interior id
// is the natural generalization: whenever the paper's rule is well-defined
// the two coincide (each earlier block is consumed exactly, so the smallest
// never-interior candidates are precisely G_k), and it reproduces the
// paper's Figure 3 verbatim. Dummy ids are the largest ids and the greedy
// order therefore never places them as interior nodes.
func buildGreedy(n, d int) *MultiTree {
	m := newMultiTree(n, d, Padded(n, d))
	i := m.I
	np := m.NP

	// required parity of position p in tree k: (p + k - 1) mod d.
	need := func(p, k int) int { return (p + k - 1) % d }

	// Tree T_0: identity (node p has exactly the parity position p needs).
	for p := 1; p <= np; p++ {
		m.Trees[0][p-1] = core.NodeID(p)
	}

	// byParity[q] lists all ids of parity q in increasing order.
	byParity := make([][]core.NodeID, d)
	for id := 1; id <= np; id++ {
		q := (id - 1) % d
		byParity[q] = append(byParity[q], core.NodeID(id))
	}
	wasInterior := make([]bool, np+1)
	for id := 1; id <= i; id++ {
		wasInterior[id] = true // interiors of T_0
	}

	for k := 1; k < d; k++ {
		tree := m.Trees[k]
		placed := make([]bool, np+1)

		// Interior positions: smallest never-interior id of the required
		// parity. Cursors only move forward because "never interior" ids
		// are consumed permanently across trees — but a cursor must not
		// skip ids that remain available for later positions of the same
		// parity, so we re-scan from a per-parity low-water mark.
		intCursor := make([]int, d)
		for p := 1; p <= i; p++ {
			q := need(p, k)
			list := byParity[q]
			c := intCursor[q]
			for wasInterior[list[c]] {
				c++
			}
			id := list[c]
			tree[p-1] = id
			wasInterior[id] = true
			placed[id] = true
			intCursor[q] = c + 1
		}
		// Leaf positions: smallest id of the required parity not yet in
		// this tree.
		leafCursor := make([]int, d)
		for p := i + 1; p <= np; p++ {
			q := need(p, k)
			list := byParity[q]
			c := leafCursor[q]
			for placed[list[c]] {
				c++
			}
			id := list[c]
			tree[p-1] = id
			placed[id] = true
			leafCursor[q] = c + 1
		}
	}
	return m
}
