package hypercube

// The paper leaves hypercube dynamics as future work (Section 4). The
// natural construction-preserving repair keeps members in decomposition
// order: the chain decomposition is a pure function of N, and the member at
// 0-based index i sits at placement(i, N). An add appends a member at the
// end; a delete moves the last member into the vacated index. Either way a
// member is relocated when its (cube, vertex) placement changes.
//
// The cost profile this exposes is the reason the problem is hard: away
// from 2^k−1 boundaries only the small tail cubes are rebuilt (O(1)–O(log N)
// relocations), but crossing a boundary (e.g. N=14→15 collapses [3 2 2 1]
// into [4]) relocates a constant fraction of the system. The churn
// experiment contrasts this with the multi-tree scheme's ≤ d+d² swaps.

// placement maps a 0-based decomposition slot to its (cube index, cube
// dimension, vertex) under the chain decomposition of n nodes.
func placement(slot, n int) (cube, k, vertex int) {
	rem := n
	for {
		k = 0
		for 1<<(k+1)-1 <= rem {
			k++
		}
		size := 1<<k - 1
		if slot < size {
			return cube, k, slot + 1
		}
		slot -= size
		rem -= size
		cube++
	}
}

// relocations counts the slots (among the first m) whose placement differs
// between decompositions of nOld and nNew nodes.
func relocations(m, nOld, nNew int) int {
	count := 0
	for s := 0; s < m; s++ {
		c1, k1, v1 := placement(s, nOld)
		c2, k2, v2 := placement(s, nNew)
		if c1 != c2 || k1 != k2 || v1 != v2 {
			count++
		}
	}
	return count
}

// AddRelocations returns how many of n members a join relocates: those whose
// index's placement differs between the decompositions of n and n+1.
func AddRelocations(n int) int { return relocations(n, n, n+1) }

// DeleteRelocations returns how many of the n−1 survivors the departure of
// the member at 0-based index idx (0 ≤ idx < n, n ≥ 2) relocates: those
// whose index's placement differs between the decompositions of n and n−1,
// plus the last member, which moves into the vacated index unless it is
// the one leaving.
func DeleteRelocations(n, idx int) int {
	last := n - 1
	moved := relocations(last, n, last)
	if idx != last {
		// The vacated index, if its placement changed, was counted above for
		// a member that is gone: it now counts the last member instead.
		c1, k1, v1 := placement(idx, n)
		c2, k2, v2 := placement(idx, last)
		if c1 == c2 && k1 == k2 && v1 == v2 {
			moved++
		}
	}
	return moved
}
