package core

// TopologyOp is one membership change applied to a DynamicScheme while a run
// is in flight: a join of a named node or the departure of an existing one.
type TopologyOp struct {
	// Leave is true for a departure, false for a join.
	Leave bool
	// Name is the external name of the member joining or leaving. Wildcard
	// resolution (picking "any" victim) happens before the op reaches the
	// scheme, so Name is always concrete here.
	Name string
}

// ChurnStats reports what one applied TopologyOp did to the topology.
type ChurnStats struct {
	// Node is the stable NodeID the op resolved to: the id assigned to a
	// joining member, or the id vacated by a departing one.
	Node NodeID
	// Leave records the op direction (copied from the TopologyOp): engines
	// reset per-id state when an id is reassigned to a joining member.
	Leave bool
	// Swaps is the number of position relocations the repair performed.
	// For the multi-tree family the appendix bound is d²+d per op.
	Swaps int
}

// MemberInfo pairs a live member's stable NodeID with its external name.
type MemberInfo struct {
	Node NodeID
	Name string
}

// DynamicScheme is a Scheme whose topology may change between slots while a
// run is in flight: after Apply returns, the next Transmissions call
// schedules the new topology.
//
// NodeIDs are stable across ops: a join may extend the id space (never
// renumbering existing members) and a leave tombstones its id. NumReceivers
// therefore reports the size of the id space ever allocated, not the live
// population — engines size their state to the id space and treat departed
// ids as permanently silent. SourceCapacity is fixed for a run: engines read
// it once, at the start, for the source's send capacity and the range of
// packet ids they track.
type DynamicScheme interface {
	Scheme
	// Members returns the live members sorted by name. The slice is fresh:
	// callers may retain it across ops.
	Members() []MemberInfo
	// Apply applies one op at the boundary entering slot t and returns what
	// it did, or why it could not be applied.
	Apply(t Slot, op TopologyOp) (ChurnStats, error)
}
