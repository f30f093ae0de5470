package hypercube

import (
	"fmt"

	"streamcast/internal/core"
)

// Dynamic maintains a chained-hypercube streaming system under node churn.
//
// The paper leaves hypercube dynamics as future work (Section 4); this is
// the natural construction-preserving algorithm: the chain decomposition is
// a pure function of N, so an add or delete keeps every member whose
// (cube, vertex) placement is unchanged and relocates only the members in
// the suffix of the chain whose cube shapes differ (a deletion first swaps
// the departing member with the member in the last chain slot).
//
// The cost profile this exposes is the reason the problem is hard: away
// from 2^k−1 boundaries only the small tail cubes are rebuilt (O(1)–O(log N)
// relocations), but crossing a boundary (e.g. N=14→15 collapses [3 2 2 1]
// into [4]) relocates a constant fraction of the system. The churn
// experiment contrasts this with the multi-tree scheme's ≤ d+d² swaps.
type Dynamic struct {
	// members[i] is the name of the member occupying global slot i+1 in
	// decomposition order; the slot determines its cube and vertex.
	members []string
	byName  map[string]int
}

// NewDynamicHC builds a churn-capable chained-hypercube system over n
// members named node-1..node-n. Every op repairs the placement at once and
// reports its relocations.
func NewDynamicHC(n int) (*Dynamic, error) {
	if n < 1 {
		return nil, fmt.Errorf("hypercube: n must be >= 1, got %d", n)
	}
	dy := &Dynamic{byName: make(map[string]int, n)}
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("node-%d", i+1)
		dy.members = append(dy.members, name)
		dy.byName[name] = i
	}
	return dy, nil
}

// N returns the current member count.
func (dy *Dynamic) N() int { return len(dy.members) }

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

// Add inserts a new member and returns the number of existing members that
// had to be relocated to new cube positions.
func (dy *Dynamic) Add(name string) (int, error) {
	if _, dup := dy.byName[name]; dup {
		return 0, fmt.Errorf("hypercube: member %q already present", name)
	}
	old := len(dy.members)
	dy.members = append(dy.members, name)
	dy.byName[name] = old
	return relocations(old, old, old+1), nil
}

// Delete removes the named member and returns the number of surviving
// members relocated (including the one swapped into the vacated slot).
func (dy *Dynamic) Delete(name string) (int, error) {
	idx, ok := dy.byName[name]
	if !ok {
		return 0, fmt.Errorf("hypercube: member %q not present", name)
	}
	if len(dy.members) <= 1 {
		return 0, fmt.Errorf("hypercube: cannot delete the last member")
	}
	old := len(dy.members)
	last := old - 1
	moved := relocations(last, old, old-1)
	if idx != last {
		// The member from the last slot takes over the vacated slot; if
		// that slot is itself stable it still counts as one relocation.
		c1, k1, v1 := placement(idx, old)
		c2, k2, v2 := placement(idx, old-1)
		if c1 == c2 && k1 == k2 && v1 == v2 {
			moved++
		}
		dy.members[idx] = dy.members[last]
		dy.byName[dy.members[idx]] = idx
	}
	dy.members = dy.members[:last]
	delete(dy.byName, name)
	return moved, nil
}

// Names returns the member name for every current global NodeID.
func (dy *Dynamic) Names() map[core.NodeID]string {
	out := make(map[core.NodeID]string, len(dy.members))
	for i, name := range dy.members {
		out[core.NodeID(i+1)] = name
	}
	return out
}
