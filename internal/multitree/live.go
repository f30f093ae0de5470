package multitree

import (
	"fmt"

	"streamcast/internal/core"
)

// LiveScheme is a multi-tree family under node churn, scheduled in place
// while a run is in flight. It implements core.DynamicScheme, and Apply is
// the only way its membership changes: the op runs through the appendix
// algorithms for node addition and deletion (eager and lazy variants), and
// the schedule then follows it.
//
// The family is built on the greedy construction, whose strong phase
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
// and a deletion retires the removed member into a dummy. Swap counts match
// the paper's bounds: at most d for an addition (only when d | N and the
// trees must grow a level), at most d for the find-replacement step of a
// deletion, and at most d² for the restore step when the last all-leaf node
// is consumed (d | N−1).
//
// Member ids double as node ids and are stable across churn: a join revives
// a dummy id (or appends d fresh ids when the trees grow a level) and a
// leave tombstones its id. NumReceivers therefore reports the id space ever
// allocated — departed and dummy ids stay addressable but silent, which is
// what lets the slot engine keep its struct-of-arrays state fixed across
// epochs.
//
// The schedule itself is a Scheme over the family: a position's first
// receive slot depends only on (mode, d, tree, position), so a membership
// swap changes who occupies a position but never when the position fires.
// After each op the Scheme's firing lists are patched where the op moved an
// occupant, and moved at their ends when the trees grew or shrank. The
// schedule stays exactly periodic with period d between ops.
type LiveScheme struct {
	// m is the family. Its ids are the member ids, stable across churn: ids
	// 1..NP of the greedy construction, then d fresh ids per grow. The mask
	// marks dummies, and a shrink's discarded dummies keep their mask and
	// lose their positions. m.N counts the live real members.
	m      *MultiTree
	names  []string // names[id] of a real member, "" otherwise
	byName map[string]core.NodeID

	lazy          bool
	pendingShrink bool
	// swaps logs the last op's exchanges in order, and flipped is the
	// member whose dummy mark it changed: the joiner it revived or the
	// leaver it retired. Each op resets both first. Apply re-reads the
	// positions they name; ChurnImpact undoes the swaps to find where a
	// survivor sat before the op.
	swaps   []swap
	flipped core.NodeID

	sched *Scheme // over m; its warm is not kept, so no Period
}

var _ core.Scheme = (*LiveScheme)(nil)
var _ core.DynamicScheme = (*LiveScheme)(nil)

// NewLiveScheme builds a churn-capable multi-tree family over n initial
// members named MemberName(1)..MemberName(n), using the greedy construction,
// under the positional round-robin schedule of mode. If lazy is set, the
// deletion restore step is deferred in the hope that the next event is an
// addition (the paper's "lazy" variants).
func NewLiveScheme(n, d int, lazy bool, mode core.StreamMode) (*LiveScheme, error) {
	m, err := New(n, d, Greedy)
	if err != nil {
		return nil, err
	}
	s := &LiveScheme{
		m:      m,
		names:  make([]string, m.NP+1),
		byName: make(map[string]core.NodeID, n),
		lazy:   lazy,
		sched:  NewScheme(m, mode),
	}
	for id := core.NodeID(1); int(id) <= n; id++ {
		name := MemberName(id)
		s.names[id] = name
		s.byName[name] = id
	}
	return s, nil
}

// Name implements core.Scheme.
func (s *LiveScheme) Name() string {
	return fmt.Sprintf("multitree-live(d=%d,%s)", s.m.D, s.sched.Mode)
}

// NumReceivers implements core.Scheme: the size of the stable id space
// (live members, dummies, and tombstoned departures alike).
func (s *LiveScheme) NumReceivers() int { return len(s.m.dummy) - 1 }

// SourceCapacity implements core.Scheme.
func (s *LiveScheme) SourceCapacity() int { return s.m.D }

// SteadyState returns the first slot from which the current epoch's schedule
// repeats every d slots: the latest round-0 receive slot over all padded
// positions, dummy-held ones included, so membership swaps never move it. A
// run's horizon reads it to leave room for the whole window.
func (s *LiveScheme) SteadyState() core.Slot {
	var steady core.Slot
	for _, lists := range s.sched.fires {
		for _, list := range lists {
			for _, f := range list {
				steady = max(steady, core.Slot(f.first))
			}
		}
	}
	return steady
}

// Apply implements core.DynamicScheme: the op runs through the appendix
// add/delete algorithms; the firing lists then follow the trees' padded size
// and re-read the positions the op swapped and those of the member it
// flipped. A refused op (a duplicate join, the leave of an unknown or the
// last member) changes nothing, and its error names the member, not the
// slot: the caller knows that.
func (s *LiveScheme) Apply(_ core.Slot, op core.TopologyOp) (core.ChurnStats, error) {
	var err error
	if op.Leave {
		err = s.remove(op.Name)
	} else {
		err = s.add(op.Name)
	}
	if err != nil {
		return core.ChurnStats{}, err
	}
	s.sched.resize()
	for _, sw := range s.swaps {
		s.sched.repoint(sw.k, sw.a)
		s.sched.repoint(sw.k, sw.b)
	}
	for k, pos := range s.m.pos {
		s.sched.repoint(k, pos[s.flipped])
	}
	return core.ChurnStats{Node: s.flipped, Leave: op.Leave, Swaps: len(s.swaps)}, nil
}

// Neighbors implements core.Scheme: the walk as a map.
func (s *LiveScheme) Neighbors() map[core.NodeID][]core.NodeID {
	return core.NeighborMap(s.m.N, 2*s.m.D, s.EachNeighbors)
}

// EachNeighbors implements core.Scheme over the live membership: for each
// live real member, the distinct nodes it exchanges packets with at the
// current epoch (MultiTree.EachNeighbors over the family's member ids).
func (s *LiveScheme) EachNeighbors(yield func(id core.NodeID, list []core.NodeID)) {
	s.m.EachNeighbors(yield)
}

// MaxNeighbors is MultiTree.MaxNeighbors over the current epoch's members.
func (s *LiveScheme) MaxNeighbors() int { return s.m.MaxNeighbors() }

// Transmissions implements core.Scheme: Scheme.Transmissions over the
// patched lists. The returned slice is reused across calls, as core.Scheme
// allows: it is valid until the next call.
func (s *LiveScheme) Transmissions(t core.Slot) []core.Transmission {
	return s.sched.Transmissions(t)
}
