package core

import (
	"fmt"
	"slices"
)

// NodeID identifies a node within a cluster. The source is always SourceID;
// receivers are numbered 1..N as in the paper ("node id i").
type NodeID int

// SourceID is the NodeID of the stream source within a cluster.
const SourceID NodeID = 0

// Packet is a sequence number in the stream. The first packet is 0.
// A stream is conceptually infinite; simulations run over a finite prefix.
type Packet int

// Slot is a discrete time step. Slot 0 is the first transmission slot.
type Slot int

// Transmission is one directed packet transfer scheduled for a single slot.
type Transmission struct {
	From   NodeID
	To     NodeID
	Packet Packet
}

// String implements fmt.Stringer for debugging and trace output.
func (t Transmission) String() string {
	return fmt.Sprintf("%d->%d:p%d", t.From, t.To, t.Packet)
}

// StreamMode distinguishes the data-availability assumption at the source.
type StreamMode int

const (
	// PreRecorded means all packets are available at the source at slot 0
	// (e.g. delivery of a movie).
	PreRecorded StreamMode = iota
	// Live means packet p is produced at the source only at slot p, so it
	// cannot be transmitted earlier (e.g. a sporting-event broadcast).
	Live
	// LivePreBuffered means the source delays streaming until it has
	// accumulated d packets, then follows the pre-recorded schedule shifted
	// by d slots. All nodes see exactly d extra slots of delay.
	LivePreBuffered
)

// String implements fmt.Stringer.
func (m StreamMode) String() string {
	switch m {
	case PreRecorded:
		return "pre-recorded"
	case Live:
		return "live"
	case LivePreBuffered:
		return "live-prebuffered"
	default:
		return fmt.Sprintf("StreamMode(%d)", int(m))
	}
}

// Scheme is a streaming scheme: a mesh construction plus a transmission
// schedule. A Scheme is pure data generation — it is executed and validated
// by the slotsim engine, which independently enforces the per-slot
// capacity constraints of the model.
type Scheme interface {
	// Name returns a short human-readable scheme name.
	Name() string
	// NumReceivers returns N, the number of (real) receivers.
	NumReceivers() int
	// SourceCapacity returns the number of packets the source may transmit
	// per slot (d for multi-tree; 1 for the basic hypercube scheme).
	SourceCapacity() int
	// Transmissions returns every transmission scheduled for the given
	// slot. Implementations must be deterministic. The result is read-only
	// and valid only until the next Transmissions call on the same scheme,
	// which may reuse its memory; a caller that keeps a slot copies it. A
	// Scheme is therefore not safe for concurrent use.
	Transmissions(t Slot) []Transmission
	// Neighbors returns, for each receiver, the set of distinct nodes it
	// ever exchanges packets with (its protocol-maintenance neighbor set).
	// A list holds no duplicates and is not sorted. The paper constructions
	// (multi-tree, hypercube) return each list in construction order — a
	// multi-tree node's parent, then its children, tree by tree; a cube
	// vertex's partners by dimension, then its chain edges — so two calls
	// return identical slices. Schemes that gather their mesh from sets
	// (cluster, gossip) promise the members only: compare as sets. A caller
	// that wants only the longest list's length asks MaxNeighbors, and one
	// that reads every list once asks EachNeighbors: neither builds a map
	// for the paper constructions.
	Neighbors() map[NodeID][]NodeID
}

// EachNeighbors calls yield once per node s.Neighbors() lists, with that list,
// through the walk s declares when it has a method of this signature, as the
// paper constructions do, and over the map otherwise. list is valid only
// during the call: a walk reuses its buffer.
func EachNeighbors(s Scheme, yield func(id NodeID, list []NodeID)) {
	if w, ok := s.(interface {
		EachNeighbors(yield func(id NodeID, list []NodeID))
	}); ok {
		w.EachNeighbors(yield)
		return
	}
	for id, list := range s.Neighbors() {
		yield(id, list)
	}
}

// NeighborMap collects a walk of n lists, most at most width long, into the
// map Neighbors returns: each list is copied into one shared array and capped
// at its length, so that appending to one never writes into the next.
func NeighborMap(n, width int, walk func(yield func(id NodeID, list []NodeID))) map[NodeID][]NodeID {
	out := make(map[NodeID][]NodeID, n)
	rows := make([]NodeID, 0, n*width)
	walk(func(id NodeID, list []NodeID) {
		lo := len(rows)
		rows = append(rows, list...)
		out[id] = rows[lo:len(rows):len(rows)]
	})
	return out
}

// MaxNeighbors returns the length of the longest list s.Neighbors() returns,
// 0 when it lists no node: the paper's neighbour count, its third axis beside
// delay and buffer. A scheme that has a method MaxNeighbors() int answers
// directly and promises exactly that length (the hypercube reads it off O(k)
// vertices per cube); every other scheme's lists are read through
// EachNeighbors, so a map is built only for a scheme without a walk.
func MaxNeighbors(s Scheme) int {
	if d, ok := s.(interface{ MaxNeighbors() int }); ok {
		return d.MaxNeighbors()
	}
	worst := 0
	EachNeighbors(s, func(_ NodeID, list []NodeID) { worst = max(worst, len(list)) })
	return worst
}

// Periodic is a Scheme that declares its schedule periodic. Period returns a
// warm-up slot warm ≥ 0 and a period P; P ≤ 0 declares nothing. A declaration
// with P > 0 is a promise: for every t ≥ warm, Transmissions(t+P) is
// Transmissions(t) with the same From, To and order and every Packet plus P.
// The engine (internal/slotsim) takes the promise as given and certifies a
// run from it, so a scheme must declare only what its construction proves: a
// period its schedule does not keep yields a wrong Result, where a period its
// state never repeats at only leaves the run uncertified.
type Periodic interface {
	Scheme
	Period() (warm, P Slot)
}

// AppendNeighbor appends id to a neighbor list unless the list already holds
// it. Neighbor lists are short (at most 2d entries), so Neighbors
// implementations dedup by scanning the list instead of building a set per
// node.
func AppendNeighbor(list []NodeID, id NodeID) []NodeID {
	if slices.Contains(list, id) {
		return list
	}
	return append(list, id)
}

// MaxArrivalCells is the ceiling on the (node, tracked packet) cells a run may
// track: a run whose horizon × population asks for more is refused up front
// with an error that states what it would allocate, instead of dying in the
// allocator. The slot engine keeps a presence bit per cell (128 MiB at the
// ceiling) and arrival slots, 1 to 4 bytes each by the horizon, only for the
// window of a run that reads them; check.Static is an engine run, so the same
// gate refuses an oversized verification. The million-node hypercube uses under a twentieth of it.
const MaxArrivalCells = 1 << 30

// CompiledScheme, CompileForRun and Window remain only for bench/pipeline.go,
// which times a compile step and cannot change outside a benchmark revision:
// schedules are generated slot by slot, so CompileForRun always declines.
type CompiledScheme struct{ Scheme }

// CompileForRun returns nil: there is no compiled form of a schedule.
func CompileForRun(Scheme, Slot) *CompiledScheme { return nil }

// Window returns nothing; see CompiledScheme.
func (*CompiledScheme) Window() (steady, period Slot, backing []Transmission, off []int) {
	return 0, 0, nil, nil
}
