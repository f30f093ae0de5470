package multitree

import (
	"fmt"
	"sort"

	"streamcast/internal/core"
)

// swap is an exchange of the occupants of positions a and b of tree k.
type swap struct{ k, a, b int }

// MemberName is the name of initial member id: NewLiveScheme names its n
// initial members MemberName(1)..MemberName(n), the static greedy tree's ids.
func MemberName(id core.NodeID) string { return fmt.Sprintf("node-%d", id) }

// SwapBound returns the appendix's per-operation swap bound d²+d: at most
// d swaps for an addition (grow step) and at most d+d² for a deletion
// (replacement plus restore). No single churn operation may exceed it.
func SwapBound(d int) int { return d*d + d }

// Members implements core.DynamicScheme: the live real members with their
// ids, sorted by name.
func (s *LiveScheme) Members() []core.MemberInfo {
	out := make([]core.MemberInfo, 0, s.m.N)
	for id, dummy := range s.m.dummy {
		if id > 0 && !dummy {
			out = append(out, core.MemberInfo{Node: core.NodeID(id), Name: s.names[id]})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// swapInTree exchanges the occupants of positions pa and pb in tree k.
func (s *LiveScheme) swapInTree(k, pa, pb int) {
	tree, pos := s.m.Trees[k], s.m.pos[k]
	a, b := tree[pa-1], tree[pb-1]
	tree[pa-1], tree[pb-1] = b, a
	pos[a], pos[b] = pb, pa
	s.swaps = append(s.swaps, swap{k, pa, pb})
}

// isAllLeaf reports whether the member is a leaf in every tree.
func (s *LiveScheme) isAllLeaf(mem core.NodeID) bool {
	for _, pos := range s.m.pos {
		if pos[mem] <= s.m.I {
			return false
		}
	}
	return true
}

// add inserts a new real member with the given name.
func (s *LiveScheme) add(name string) error {
	s.swaps, s.flipped = s.swaps[:0], 0
	if _, dup := s.byName[name]; dup {
		return fmt.Errorf("multitree: member %q already present", name)
	}
	m := s.m
	if m.NP == m.N {
		// d | N and every position is taken by a real member: grow the
		// trees by one level (Step 1/2 of the addition algorithm).
		s.grow()
	}
	// Revive a dummy member — when dummies already existed (including the
	// deferred-shrink state) this costs zero swaps, exactly the lazy
	// saving the paper describes.
	mem, err := s.pickDummy()
	if err != nil {
		return err
	}
	s.pendingShrink = false
	m.dummy[mem] = false
	s.flipped = mem
	s.names[mem] = name
	s.byName[name] = mem
	m.N++
	return nil
}

// pickDummy returns the dummy member with the smallest tree-0 position. An
// error means the phase invariant is broken: after the grow step every
// family has at least one dummy slot.
func (s *LiveScheme) pickDummy() (core.NodeID, error) {
	for _, mem := range s.m.Trees[0] {
		if s.m.IsDummy(mem) {
			return mem, nil
		}
	}
	return 0, fmt.Errorf("multitree: no dummy available (np=%d, n=%d): family state is corrupt", s.m.NP, s.m.N)
}

// grow adds one level: the first leaf position p* = I+1 becomes interior in
// every tree (its occupant is first swapped, within the tree, with the
// all-leaf tail member of the same residue, so that no member becomes
// interior in two trees), then d fresh tail positions are appended per tree
// and populated with d fresh dummy members in distinct-residue patterns.
func (s *LiveScheme) grow() {
	m := s.m
	d, np := m.D, m.NP
	pStar := m.I + 1
	for k := 0; k < d; k++ {
		o := m.Trees[k][pStar-1]
		if s.isAllLeaf(o) {
			continue // already safe to promote
		}
		// Find the tail position of tree k with the same residue as p*.
		for p := np - d + 1; p <= np; p++ {
			if p%d == pStar%d {
				s.swapInTree(k, pStar, p)
				break
			}
		}
	}
	// Extend every tree with d new positions holding d new dummy members.
	firstNew := core.NodeID(len(m.dummy))
	for range d {
		m.dummy = append(m.dummy, true)
		s.names = append(s.names, "")
	}
	for k := 0; k < d; k++ {
		m.Trees[k] = append(m.Trees[k], make([]core.NodeID, d)...)
		m.pos[k] = append(m.pos[k], make([]int, d)...)
		for mu := 0; mu < d; mu++ {
			// Member mu takes the new position with residue
			// (np+1+mu) − k, giving each new member a distinct phase.
			p := np + 1 + ((mu-k)%d+d)%d
			mem := firstNew + core.NodeID(mu)
			m.Trees[k][p-1] = mem
			m.pos[k][mem] = p
		}
	}
	m.NP += d
	m.I++
}

// remove retires the named real member.
func (s *LiveScheme) remove(name string) error {
	s.swaps, s.flipped = s.swaps[:0], 0
	mem, ok := s.byName[name]
	if !ok {
		return fmt.Errorf("multitree: member %q not present", name)
	}
	m := s.m
	if m.N <= 1 {
		return fmt.Errorf("multitree: cannot delete the last member")
	}

	if s.pendingShrink {
		// A deferred restore is outstanding and the next event is another
		// deletion: materialize it first (lazy variant bookkeeping).
		s.shrink()
	}

	// Step 1 (find replacement): swap the departing member with the last
	// real all-leaf node of tree 0, unless it is itself all-leaf.
	if !s.isAllLeaf(mem) {
		x, err := s.lastRealTailMember()
		if err != nil {
			return err
		}
		for k, pos := range m.pos {
			s.swapInTree(k, pos[mem], pos[x])
		}
	}
	// Step 3 (remove node): the member retires into a dummy.
	m.dummy[mem] = true
	s.flipped = mem
	s.names[mem] = ""
	delete(s.byName, name)
	m.N--

	// Step 2 (restore property): if the tail is now entirely dummies
	// (d | N−1 in the paper's terms), the trees must drop a level — unless
	// we are lazy and gamble on the next event being an addition.
	if m.NP-m.N == m.D {
		if s.lazy {
			s.pendingShrink = true
		} else {
			s.shrink()
		}
	}
	return nil
}

// lastRealTailMember returns the real all-leaf member with the largest
// tree-0 position. An error means the phase invariant is broken: an
// all-dummy tail triggers the shrink step before any caller needs a
// replacement from it.
func (s *LiveScheme) lastRealTailMember() (core.NodeID, error) {
	m := s.m
	for p := m.NP; p > m.NP-m.D; p-- {
		if mem := m.Trees[0][p-1]; !m.IsDummy(mem) {
			return mem, nil
		}
	}
	return 0, fmt.Errorf("multitree: no real all-leaf member in the tree-0 tail (np=%d, n=%d): family state is corrupt", m.NP, m.N)
}

// shrink drops the last level: the d parents of the (all-dummy) tail become
// all-leaf nodes and are moved — by same-residue swaps within each tree —
// into the positions that will form the new tail; the d dummy tail members
// are then discarded (they keep their ids and their mask, and lose their
// positions) and the last interior position is demoted.
func (s *LiveScheme) shrink() {
	m := s.m
	d, np := m.D, m.NP
	// P[j] is the interior-position-I occupant of tree j: the new all-leaf
	// class. Their phases are pairwise distinct, so their residues never
	// collide within any tree.
	parents := make([]core.NodeID, d)
	for j := 0; j < d; j++ {
		parents[j] = m.Trees[j][m.I-1]
	}
	newTailLo := np - 2*d + 1
	for k := 0; k < d; k++ {
		for _, pj := range parents {
			q := m.pos[k][pj]
			// Target: the new-tail position with q's residue.
			qq := newTailLo + ((q-newTailLo)%d+d)%d
			if qq == q {
				continue
			}
			s.swapInTree(k, q, qq)
		}
	}
	// Discard the dummy tail and demote interior position I.
	for k := 0; k < d; k++ {
		for _, mem := range m.Trees[k][np-d:] {
			m.pos[k][mem] = 0
		}
		m.Trees[k] = m.Trees[k][:np-d]
	}
	m.NP -= d
	m.I--
	s.pendingShrink = false
}

// Validate checks the full invariant set on the family as it stands: the
// MultiTree invariants over the member ids, and that the all-leaf class
// occupies the tail of every tree.
func (s *LiveScheme) Validate() error {
	m := s.m
	if err := m.Validate(); err != nil {
		return err
	}
	tail := m.NP - m.D
	for k := 1; k < m.D; k++ {
		for _, mem := range m.Trees[k][tail:] {
			if m.pos[0][mem] <= tail {
				return fmt.Errorf("tree %d tail member %d not in tree-0 tail class", k, mem)
			}
		}
	}
	return nil
}
