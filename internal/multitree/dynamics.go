package multitree

import (
	"fmt"
	"sort"

	"streamcast/internal/core"
)

// Dynamic maintains a multi-tree family under node churn, implementing the
// appendix algorithms for node addition and deletion (eager and lazy
// variants). It is built on the greedy construction, whose strong phase
// invariant — every member sits at a position ≡ φ − k (mod d) in tree T_k
// for a per-member phase φ — is what makes the paper's constant-swap
// restructuring possible:
//
//   - swapping two members' entire position sets preserves the invariant
//     (their phases swap);
//   - swapping two same-residue positions within one tree preserves it;
//   - members with distinct phases never compete for the same residue slot.
//
// Dummy members are first-class: they occupy full distinct-residue position
// sets, so an addition while dummies exist simply revives one (zero swaps),
// and a deletion retires the removed member into a dummy.
//
// Swap counts match the paper's bounds: at most d for an addition (only
// when d | N and the trees must grow a level), at most d for the
// find-replacement step of a deletion, and at most d² for the restore step
// when the last all-leaf node is consumed (d | N−1).
type Dynamic struct {
	// m is the family. Its ids are the member ids, stable across churn: ids
	// 1..NP of the greedy construction, then d fresh ids per grow. The mask
	// marks dummies, and a shrink's discarded dummies keep their mask and
	// lose their positions. m.N counts the live real members.
	m      *MultiTree
	names  []string // names[id] of a real member, "" otherwise
	byName map[string]core.NodeID

	lazy          bool
	pendingShrink bool
	totalSwaps    int
	// swaps logs the last Add's or Delete's exchanges in order, and flipped
	// is the member whose dummy mark it changed: the joiner it revived or
	// the leaver it retired. Each op resets both first. LiveScheme re-reads
	// the positions they name; ChurnImpact undoes the swaps to find where a
	// survivor sat before the op.
	swaps   []swap
	flipped core.NodeID
}

// swap is an exchange of the occupants of positions a and b of tree k.
type swap struct{ k, a, b int }

// OpStats reports what one churn operation did.
type OpStats struct {
	// Swaps is the number of per-tree position exchanges performed.
	Swaps int
	// Grew and Shrunk report whether the trees gained or lost a level of
	// positions.
	Grew, Shrunk bool
}

// NewDynamic builds a churn-capable multi-tree family over n initial
// members named name(1)..name(n), using the greedy construction. If lazy is
// set, the deletion restore step is deferred in the hope that the next
// event is an addition (the paper's "lazy" variants).
func NewDynamic(n, d int, lazy bool) (*Dynamic, error) {
	m, err := New(n, d, Greedy)
	if err != nil {
		return nil, err
	}
	dy := &Dynamic{
		m:      m,
		names:  make([]string, m.NP+1),
		byName: make(map[string]core.NodeID, n),
		lazy:   lazy,
	}
	for id := core.NodeID(1); int(id) <= n; id++ {
		name := defaultName(int(id))
		dy.names[id] = name
		dy.byName[name] = id
	}
	return dy, nil
}

func defaultName(i int) string { return fmt.Sprintf("node-%d", i) }

// N returns the current number of real members.
func (dy *Dynamic) N() int { return dy.m.N }

// SwapBound returns the appendix's per-operation swap bound d²+d: at most
// d swaps for an addition (grow step) and at most d+d² for a deletion
// (replacement plus restore). No single churn operation may exceed it.
func SwapBound(d int) int { return d*d + d }

// TotalSwaps returns the cumulative per-tree swap count across all
// operations.
func (dy *Dynamic) TotalSwaps() int { return dy.totalSwaps }

// Names returns the names of all live real members, sorted.
func (dy *Dynamic) Names() []string {
	out := make([]string, 0, dy.m.N)
	for _, mem := range dy.Members() {
		out = append(out, mem.Name)
	}
	return out
}

// Members returns the live real members with their ids, sorted by name.
func (dy *Dynamic) Members() []core.MemberInfo {
	out := make([]core.MemberInfo, 0, dy.m.N)
	for id, dummy := range dy.m.dummy {
		if id > 0 && !dummy {
			out = append(out, core.MemberInfo{Node: core.NodeID(id), Name: dy.names[id]})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// swapInTree exchanges the occupants of positions pa and pb in tree k.
func (dy *Dynamic) swapInTree(k, pa, pb int) {
	tree, pos := dy.m.Trees[k], dy.m.pos[k]
	a, b := tree[pa-1], tree[pb-1]
	tree[pa-1], tree[pb-1] = b, a
	pos[a], pos[b] = pb, pa
	dy.totalSwaps++
	dy.swaps = append(dy.swaps, swap{k, pa, pb})
}

// isAllLeaf reports whether the member is a leaf in every tree.
func (dy *Dynamic) isAllLeaf(mem core.NodeID) bool {
	for _, pos := range dy.m.pos {
		if pos[mem] <= dy.m.I {
			return false
		}
	}
	return true
}

// Add inserts a new real member with the given name.
func (dy *Dynamic) Add(name string) (OpStats, error) {
	dy.swaps, dy.flipped = dy.swaps[:0], 0
	if _, dup := dy.byName[name]; dup {
		return OpStats{}, fmt.Errorf("multitree: member %q already present", name)
	}
	m := dy.m
	before := dy.totalSwaps

	grew := false
	if m.NP == m.N {
		// d | N and every position is taken by a real member: grow the
		// trees by one level (Step 1/2 of the addition algorithm).
		dy.grow()
		grew = true
	}
	// Revive a dummy member — when dummies already existed (including the
	// deferred-shrink state) this costs zero swaps, exactly the lazy
	// saving the paper describes.
	mem, err := dy.pickDummy()
	if err != nil {
		return OpStats{}, err
	}
	dy.pendingShrink = false
	m.dummy[mem] = false
	dy.flipped = mem
	dy.names[mem] = name
	dy.byName[name] = mem
	m.N++
	return OpStats{Swaps: dy.totalSwaps - before, Grew: grew}, nil
}

// pickDummy returns the dummy member with the smallest tree-0 position. An
// error means the phase invariant is broken: after the grow step every
// family has at least one dummy slot.
func (dy *Dynamic) pickDummy() (core.NodeID, error) {
	for _, mem := range dy.m.Trees[0] {
		if dy.m.IsDummy(mem) {
			return mem, nil
		}
	}
	return 0, fmt.Errorf("multitree: no dummy available (np=%d, n=%d): family state is corrupt", dy.m.NP, dy.m.N)
}

// grow adds one level: the first leaf position p* = I+1 becomes interior in
// every tree (its occupant is first swapped, within the tree, with the
// all-leaf tail member of the same residue, so that no member becomes
// interior in two trees), then d fresh tail positions are appended per tree
// and populated with d fresh dummy members in distinct-residue patterns.
func (dy *Dynamic) grow() {
	m := dy.m
	d, np := m.D, m.NP
	pStar := m.I + 1
	for k := 0; k < d; k++ {
		o := m.Trees[k][pStar-1]
		if dy.isAllLeaf(o) {
			continue // already safe to promote
		}
		// Find the tail position of tree k with the same residue as p*.
		for p := np - d + 1; p <= np; p++ {
			if p%d == pStar%d {
				dy.swapInTree(k, pStar, p)
				break
			}
		}
	}
	// Extend every tree with d new positions holding d new dummy members.
	firstNew := core.NodeID(len(m.dummy))
	for range d {
		m.dummy = append(m.dummy, true)
		dy.names = append(dy.names, "")
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

// Delete removes the named real member.
func (dy *Dynamic) Delete(name string) (OpStats, error) {
	dy.swaps, dy.flipped = dy.swaps[:0], 0
	mem, ok := dy.byName[name]
	if !ok {
		return OpStats{}, fmt.Errorf("multitree: member %q not present", name)
	}
	m := dy.m
	if m.N <= 1 {
		return OpStats{}, fmt.Errorf("multitree: cannot delete the last member")
	}
	before := dy.totalSwaps
	shrunk := false

	if dy.pendingShrink {
		// A deferred restore is outstanding and the next event is another
		// deletion: materialize it first (lazy variant bookkeeping).
		dy.shrink()
		shrunk = true
	}

	// Step 1 (find replacement): swap the departing member with the last
	// real all-leaf node of tree 0, unless it is itself all-leaf.
	if !dy.isAllLeaf(mem) {
		x, err := dy.lastRealTailMember()
		if err != nil {
			return OpStats{}, err
		}
		for k, pos := range m.pos {
			dy.swapInTree(k, pos[mem], pos[x])
		}
	}
	// Step 3 (remove node): the member retires into a dummy.
	m.dummy[mem] = true
	dy.flipped = mem
	dy.names[mem] = ""
	delete(dy.byName, name)
	m.N--

	// Step 2 (restore property): if the tail is now entirely dummies
	// (d | N−1 in the paper's terms), the trees must drop a level — unless
	// we are lazy and gamble on the next event being an addition.
	if m.NP-m.N == m.D {
		if dy.lazy {
			dy.pendingShrink = true
		} else {
			dy.shrink()
			shrunk = true
		}
	}
	return OpStats{Swaps: dy.totalSwaps - before, Shrunk: shrunk}, nil
}

// lastRealTailMember returns the real all-leaf member with the largest
// tree-0 position. An error means the phase invariant is broken: an
// all-dummy tail triggers the shrink step before any caller needs a
// replacement from it.
func (dy *Dynamic) lastRealTailMember() (core.NodeID, error) {
	m := dy.m
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
func (dy *Dynamic) shrink() {
	m := dy.m
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
			dy.swapInTree(k, q, qq)
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
	dy.pendingShrink = false
}

// Validate checks the full invariant set on the family as it stands: the
// MultiTree invariants over the member ids, and that the all-leaf class
// occupies the tail of every tree.
func (dy *Dynamic) Validate() error {
	m := dy.m
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
