package multitree

import (
	"fmt"

	"streamcast/internal/core"
)

// LiveScheme schedules a Dynamic family in place, over its member ids, so the
// topology can change between slots while a run is in flight. It implements
// core.DynamicScheme.
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
	dy    *Dynamic
	sched *Scheme // over dy's family; its warm is not kept, so no Period
}

var _ core.Scheme = (*LiveScheme)(nil)
var _ core.DynamicScheme = (*LiveScheme)(nil)

// NewLiveScheme wraps a churn-capable family with the positional round-robin
// schedule. The Dynamic is shared, not copied: ops applied through Apply
// are visible to subsequent Transmissions calls. An op applied directly on
// dy bypasses the patching of the firing lists.
func NewLiveScheme(dy *Dynamic, mode core.StreamMode) *LiveScheme {
	return &LiveScheme{dy: dy, sched: NewScheme(dy.m, mode)}
}

// Name implements core.Scheme.
func (s *LiveScheme) Name() string {
	return fmt.Sprintf("multitree-live(d=%d,%s)", s.dy.m.D, s.sched.Mode)
}

// NumReceivers implements core.Scheme: the size of the stable id space
// (live members, dummies, and tombstoned departures alike).
func (s *LiveScheme) NumReceivers() int { return len(s.dy.m.dummy) - 1 }

// SourceCapacity implements core.Scheme.
func (s *LiveScheme) SourceCapacity() int { return s.dy.m.D }

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

// Members implements core.DynamicScheme: Dynamic.Members.
func (s *LiveScheme) Members() []core.MemberInfo { return s.dy.Members() }

// Apply implements core.DynamicScheme: the op runs through the appendix
// add/delete algorithms; the firing lists then follow the trees' padded size
// and re-read the positions the op swapped and those of the member it
// flipped.
func (s *LiveScheme) Apply(t core.Slot, op core.TopologyOp) (core.ChurnStats, error) {
	dy := s.dy
	var st OpStats
	var err error
	if op.Leave {
		st, err = dy.Delete(op.Name)
	} else {
		st, err = dy.Add(op.Name)
	}
	if err != nil {
		return core.ChurnStats{}, fmt.Errorf("churn op at slot %d: %w", t, err)
	}
	s.sched.resize()
	for _, sw := range dy.swaps {
		s.sched.repoint(sw.k, sw.a)
		s.sched.repoint(sw.k, sw.b)
	}
	for k, pos := range dy.m.pos {
		s.sched.repoint(k, pos[dy.flipped])
	}
	return core.ChurnStats{Node: dy.flipped, Leave: op.Leave, Swaps: st.Swaps}, nil
}

// Neighbors implements core.Scheme over the live membership: for each live
// real member, the distinct nodes it exchanges packets with at the current
// epoch (MultiTree.Neighbors over the family's member ids).
func (s *LiveScheme) Neighbors() map[core.NodeID][]core.NodeID {
	return s.dy.m.Neighbors()
}

// EachNeighbors is MultiTree.EachNeighbors over the current epoch's members:
// core.EachNeighbors without the map.
func (s *LiveScheme) EachNeighbors(yield func(id core.NodeID, list []core.NodeID)) {
	s.dy.m.EachNeighbors(yield)
}

// MaxNeighbors is MultiTree.MaxNeighbors over the current epoch's members:
// core.MaxNeighbors without the map.
func (s *LiveScheme) MaxNeighbors() int { return s.dy.m.MaxNeighbors() }

// Transmissions implements core.Scheme: Scheme.Transmissions over the
// patched lists. The returned slice is reused across calls, as core.Scheme
// allows: it is valid until the next call.
func (s *LiveScheme) Transmissions(t core.Slot) []core.Transmission {
	return s.sched.Transmissions(t)
}
