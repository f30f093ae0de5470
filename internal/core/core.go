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

// NoPacket marks the absence of a packet in schedule slots.
const NoPacket Packet = -1

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
	// slot. Implementations must be deterministic.
	Transmissions(t Slot) []Transmission
	// Neighbors returns, for each receiver, the set of distinct nodes it
	// ever exchanges packets with (its protocol-maintenance neighbor set).
	// A list holds no duplicates and is not sorted. The paper constructions
	// (multi-tree, hypercube) return each list in construction order — a
	// multi-tree node's parent, then its children, tree by tree; a cube
	// vertex's partners by dimension, then its chain edges — so two calls
	// return identical slices. Schemes that gather their mesh from sets
	// (cluster, gossip) promise the members only: compare as sets.
	Neighbors() map[NodeID][]NodeID
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

// Config carries the common parameters of a streaming run.
type Config struct {
	// N is the number of receivers in the cluster.
	N int
	// Degree is d: the source transmits up to d packets per slot, and
	// multi-tree constructions build d interior-disjoint d-ary trees.
	Degree int
	// Mode is the data-availability assumption at the source.
	Mode StreamMode
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.N < 1 {
		return fmt.Errorf("core: N must be >= 1, got %d", c.N)
	}
	if c.Degree < 1 {
		return fmt.Errorf("core: degree must be >= 1, got %d", c.Degree)
	}
	switch c.Mode {
	case PreRecorded, Live, LivePreBuffered:
	default:
		return fmt.Errorf("core: invalid stream mode %d", int(c.Mode))
	}
	return nil
}
