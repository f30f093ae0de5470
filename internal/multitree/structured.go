package multitree

import "streamcast/internal/core"

// buildStructured implements the Structured Disjoint Tree Construction of
// Section 2.2.1.
//
// Node ids are split into groups G_0..G_{d-1} of I ids each (the prospective
// interior nodes) plus G_d of d ids (the all-leaf nodes, including any
// dummies). Tree T_0 is filled in breadth-first order with
// G_0 ⊕ G_1 ⊕ … ⊕ G_{d-1} ⊕ G_d. Each subsequent tree rotates the group
// order left by one; every P = d/gcd(I,d) rotations the elements inside each
// group are additionally rotated right by one; and G_d is rotated right by
// one for every tree.
func buildStructured(n, d int) *MultiTree {
	m := newMultiTree(n, d, Padded(n, d))
	i := m.I

	// groups[g] holds the current element order of group g; order of the
	// groups themselves is tracked by rotating the outer slice.
	groups := make([][]core.NodeID, d)
	next := core.NodeID(1)
	for g := 0; g < d; g++ {
		groups[g] = make([]core.NodeID, i)
		for j := 0; j < i; j++ {
			groups[g][j] = next
			next++
		}
	}
	gd := make([]core.NodeID, m.NP-d*i)
	for j := range gd {
		gd[j] = next
		next++
	}

	fill := func(k int) {
		t := m.Trees[k][:0]
		for _, g := range groups {
			t = append(t, g...)
		}
		m.Trees[k] = append(t, gd...)
	}

	p := periodP(i, d)
	fill(0)
	for k := 1; k < d; k++ {
		// Step 2: rotate the group order left by one.
		first := groups[0]
		copy(groups, groups[1:])
		groups[d-1] = first
		// Step 3: after every P rotations, rotate the elements of each
		// group right by one.
		if k%p == 0 {
			for g := range groups {
				rotateRight(groups[g])
			}
		}
		// Step 4: rotate G_d right by one and build the tree.
		rotateRight(gd)
		fill(k)
	}
	return m
}

// periodP returns P = d / gcd(I, d); with I = 0 the gcd is d and P = 1.
func periodP(i, d int) int {
	return d / gcd(i, d)
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	if a == 0 {
		return 1
	}
	return a
}

// rotateRight rotates s right by one in place: the last element becomes the
// first.
func rotateRight(s []core.NodeID) {
	if len(s) < 2 {
		return
	}
	last := s[len(s)-1]
	copy(s[1:], s[:len(s)-1])
	s[0] = last
}
