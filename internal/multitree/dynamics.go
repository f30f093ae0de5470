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
	d  int
	np int // padded positions per tree
	n  int // live real members
	i  int // interior positions per tree

	// trees[k][p-1] holds a member id; pos[k][mem] is its position.
	trees [][]int
	pos   [][]int

	real   []bool // real[mem]; false = dummy
	alive  []bool
	names  []string
	byName map[string]int

	lazy          bool
	pendingShrink bool
	totalSwaps    int
}

// OpStats reports what one churn operation did.
type OpStats struct {
	// Swaps is the number of per-tree position exchanges performed.
	Swaps int
	// Affected is the number of distinct members whose position in some
	// tree changed (these are the nodes that may suffer playback hiccups).
	Affected int
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
		d:      d,
		np:     m.NP,
		n:      n,
		i:      m.I,
		lazy:   lazy,
		byName: make(map[string]int, n),
	}
	dy.trees = make([][]int, d)
	dy.pos = make([][]int, d)
	// Member id 0 is unused so member ids align with initial node ids.
	dy.real = make([]bool, m.NP+1)
	dy.alive = make([]bool, m.NP+1)
	dy.names = make([]string, m.NP+1)
	for k := 0; k < d; k++ {
		dy.trees[k] = make([]int, m.NP)
		dy.pos[k] = make([]int, m.NP+1)
		for p := 1; p <= m.NP; p++ {
			id := int(m.Trees[k][p-1])
			dy.trees[k][p-1] = id
			dy.pos[k][id] = p
		}
	}
	for id := 1; id <= m.NP; id++ {
		dy.alive[id] = true
		dy.real[id] = id <= n
		if id <= n {
			name := defaultName(id)
			dy.names[id] = name
			dy.byName[name] = id
		}
	}
	return dy, nil
}

func defaultName(i int) string { return fmt.Sprintf("node-%d", i) }

// N returns the current number of real members.
func (dy *Dynamic) N() int { return dy.n }

// SwapBound returns the appendix's per-operation swap bound d²+d: at most
// d swaps for an addition (grow step) and at most d+d² for a deletion
// (replacement plus restore). No single churn operation may exceed it.
func SwapBound(d int) int { return d*d + d }

// TotalSwaps returns the cumulative per-tree swap count across all
// operations.
func (dy *Dynamic) TotalSwaps() int { return dy.totalSwaps }

// Names returns the names of all live real members in deterministic order.
func (dy *Dynamic) Names() []string {
	out := make([]string, 0, dy.n)
	for id := range dy.alive {
		if dy.alive[id] && dy.real[id] {
			out = append(out, dy.names[id])
		}
	}
	sort.Strings(out)
	return out
}

// swapInTree exchanges the occupants of positions pa and pb in tree k.
func (dy *Dynamic) swapInTree(k, pa, pb int) {
	a, b := dy.trees[k][pa-1], dy.trees[k][pb-1]
	dy.trees[k][pa-1], dy.trees[k][pb-1] = b, a
	dy.pos[k][a], dy.pos[k][b] = pb, pa
	dy.totalSwaps++
}

// isAllLeaf reports whether the member is a leaf in every tree.
func (dy *Dynamic) isAllLeaf(mem int) bool {
	for k := 0; k < dy.d; k++ {
		if dy.pos[k][mem] <= dy.i {
			return false
		}
	}
	return true
}

// tailMembers returns the members occupying the last d positions of tree 0
// (the all-leaf class), in position order.
func (dy *Dynamic) tailMembers() []int {
	out := make([]int, 0, dy.d)
	for p := dy.np - dy.d + 1; p <= dy.np; p++ {
		out = append(out, dy.trees[0][p-1])
	}
	return out
}

// Add inserts a new real member with the given name.
func (dy *Dynamic) Add(name string) (OpStats, error) {
	if _, dup := dy.byName[name]; dup {
		return OpStats{}, fmt.Errorf("multitree: member %q already present", name)
	}
	before := dy.totalSwaps
	affected := make(map[int]bool)

	grew := false
	if dy.np == dy.n {
		// d | N and every position is taken by a real member: grow the
		// trees by one level (Step 1/2 of the addition algorithm).
		dy.grow(affected)
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
	dy.real[mem] = true
	dy.names[mem] = name
	dy.byName[name] = mem
	dy.n++
	return OpStats{
		Swaps:    dy.totalSwaps - before,
		Affected: len(affected),
		Grew:     grew,
	}, nil
}

// pickDummy returns the dummy member with the smallest tree-0 position. An
// error means the phase invariant is broken: after the grow step every
// family has at least one dummy slot.
func (dy *Dynamic) pickDummy() (int, error) {
	for p := 1; p <= dy.np; p++ {
		mem := dy.trees[0][p-1]
		if !dy.real[mem] {
			return mem, nil
		}
	}
	return 0, fmt.Errorf("multitree: no dummy available (np=%d, n=%d): family state is corrupt", dy.np, dy.n)
}

// grow adds one level: the first leaf position p* = I+1 becomes interior in
// every tree (its occupant is first swapped, within the tree, with the
// all-leaf tail member of the same residue, so that no member becomes
// interior in two trees), then d fresh tail positions are appended per tree
// and populated with d fresh dummy members in distinct-residue patterns.
func (dy *Dynamic) grow(affected map[int]bool) {
	d, np := dy.d, dy.np
	pStar := dy.i + 1
	for k := 0; k < d; k++ {
		o := dy.trees[k][pStar-1]
		if dy.isAllLeaf(o) {
			continue // already safe to promote
		}
		// Find the tail position of tree k with the same residue as p*.
		for p := np - d + 1; p <= np; p++ {
			if p%d == pStar%d {
				dy.swapInTree(k, pStar, p)
				affected[o] = true
				affected[dy.trees[k][pStar-1]] = true
				break
			}
		}
	}
	// Extend every tree with d new positions holding d new dummy members.
	firstNew := len(dy.real)
	for mu := 0; mu < d; mu++ {
		dy.real = append(dy.real, false)
		dy.alive = append(dy.alive, true)
		dy.names = append(dy.names, "")
	}
	for k := 0; k < d; k++ {
		dy.trees[k] = append(dy.trees[k], make([]int, d)...)
		dy.pos[k] = append(dy.pos[k], make([]int, d)...)
		for mu := 0; mu < d; mu++ {
			// Member mu takes the new position with residue
			// (np+1+mu) − k, giving each new member a distinct phase.
			p := np + 1 + ((mu-k)%d+d)%d
			mem := firstNew + mu
			dy.trees[k][p-1] = mem
			dy.pos[k][mem] = p
		}
	}
	dy.np += d
	dy.i++
}

// Delete removes the named real member.
func (dy *Dynamic) Delete(name string) (OpStats, error) {
	mem, ok := dy.byName[name]
	if !ok {
		return OpStats{}, fmt.Errorf("multitree: member %q not present", name)
	}
	if dy.n <= 1 {
		return OpStats{}, fmt.Errorf("multitree: cannot delete the last member")
	}
	before := dy.totalSwaps
	affected := make(map[int]bool)
	shrunk := false

	if dy.pendingShrink {
		// A deferred restore is outstanding and the next event is another
		// deletion: materialize it first (lazy variant bookkeeping).
		dy.shrink(affected)
		shrunk = true
	}

	// Step 1 (find replacement): swap the departing member with the last
	// real all-leaf node of tree 0, unless it is itself all-leaf.
	if !dy.isAllLeaf(mem) {
		x, err := dy.lastRealTailMember()
		if err != nil {
			return OpStats{}, err
		}
		for k := 0; k < dy.d; k++ {
			dy.swapInTree(k, dy.pos[k][mem], dy.pos[k][x])
		}
		affected[x] = true
	}
	// Step 3 (remove node): the member retires into a dummy.
	dy.real[mem] = false
	dy.names[mem] = ""
	delete(dy.byName, name)
	dy.n--

	// Step 2 (restore property): if the tail is now entirely dummies
	// (d | N−1 in the paper's terms), the trees must drop a level — unless
	// we are lazy and gamble on the next event being an addition.
	if dy.np-dy.n == dy.d {
		if dy.lazy {
			dy.pendingShrink = true
		} else {
			dy.shrink(affected)
			shrunk = true
		}
	}
	return OpStats{
		Swaps:    dy.totalSwaps - before,
		Affected: len(affected),
		Shrunk:   shrunk,
	}, nil
}

// lastRealTailMember returns the real all-leaf member with the largest
// tree-0 position. An error means the phase invariant is broken: an
// all-dummy tail triggers the shrink step before any caller needs a
// replacement from it.
func (dy *Dynamic) lastRealTailMember() (int, error) {
	for p := dy.np; p > dy.np-dy.d; p-- {
		mem := dy.trees[0][p-1]
		if dy.real[mem] {
			return mem, nil
		}
	}
	return 0, fmt.Errorf("multitree: no real all-leaf member in the tree-0 tail (np=%d, n=%d): family state is corrupt", dy.np, dy.n)
}

// shrink drops the last level: the d parents of the (all-dummy) tail become
// all-leaf nodes and are moved — by same-residue swaps within each tree —
// into the positions that will form the new tail; the d dummy tail members
// are then discarded and the last interior position is demoted.
func (dy *Dynamic) shrink(affected map[int]bool) {
	d, np := dy.d, dy.np
	// P[j] is the interior-position-I occupant of tree j: the new all-leaf
	// class. Their phases are pairwise distinct, so their residues never
	// collide within any tree.
	parents := make([]int, d)
	for j := 0; j < d; j++ {
		parents[j] = dy.trees[j][dy.i-1]
	}
	newTailLo := np - 2*d + 1
	for k := 0; k < d; k++ {
		for _, pj := range parents {
			q := dy.pos[k][pj]
			// Target: the new-tail position with q's residue.
			qq := newTailLo + ((q-newTailLo)%d+d)%d
			if qq == q {
				continue
			}
			affected[dy.trees[k][qq-1]] = true
			affected[pj] = true
			dy.swapInTree(k, q, qq)
		}
	}
	// Discard the dummy tail and demote interior position I.
	for p := np - d + 1; p <= np; p++ {
		mem := dy.trees[0][p-1]
		dy.alive[mem] = false
	}
	for k := 0; k < d; k++ {
		for p := np - d + 1; p <= np; p++ {
			dy.pos[k][dy.trees[k][p-1]] = 0
		}
		dy.trees[k] = dy.trees[k][:np-d]
	}
	dy.np -= d
	dy.i--
	dy.pendingShrink = false
}

// Snapshot materializes the current family as a MultiTree with canonical
// ids (real members relabeled 1..N in member order, dummies after), so it
// can be validated and scheduled exactly like a statically built family.
// The name mapping of real members is returned alongside.
func (dy *Dynamic) Snapshot() (*MultiTree, map[core.NodeID]string) {
	relabel := make(map[int]core.NodeID, dy.np)
	names := make(map[core.NodeID]string, dy.n)
	nextReal, nextDummy := core.NodeID(1), core.NodeID(dy.n+1)
	for mem := range dy.alive {
		if !dy.alive[mem] {
			continue
		}
		if dy.real[mem] {
			relabel[mem] = nextReal
			names[nextReal] = dy.names[mem]
			nextReal++
		} else {
			relabel[mem] = nextDummy
			nextDummy++
		}
	}
	m := newMultiTree(dy.n, dy.d)
	if m.NP < dy.np {
		// Lazy deferred-shrink state: the family is one level larger than
		// the canonical padding for n members.
		m.NP = dy.np
		m.I = dy.np/dy.d - 1
		for k := 0; k < dy.d; k++ {
			m.Trees[k] = make([]core.NodeID, dy.np)
			m.pos[k] = make([]int, dy.np+1)
		}
	}
	for k := 0; k < dy.d; k++ {
		for p := 1; p <= dy.np; p++ {
			m.Trees[k][p-1] = relabel[dy.trees[k][p-1]]
		}
	}
	m.index()
	return m, names
}

// Validate checks the full invariant set on the current state.
func (dy *Dynamic) Validate() error {
	m, _ := dy.Snapshot()
	if err := m.Validate(); err != nil {
		return err
	}
	// The all-leaf class must occupy the tail region of every tree.
	tail := make(map[int]bool, dy.d)
	for _, mem := range dy.tailMembers() {
		tail[mem] = true
	}
	for k := 0; k < dy.d; k++ {
		for p := dy.np - dy.d + 1; p <= dy.np; p++ {
			if !tail[dy.trees[k][p-1]] {
				return fmt.Errorf("tree %d tail member %d not in tree-0 tail class", k, dy.trees[k][p-1])
			}
		}
	}
	return nil
}
