package baseline

import (
	"fmt"

	"streamcast/internal/core"
)

// Chain is the linked-list scheme: S → 1 → 2 → … → N.
type Chain struct {
	N int
}

var _ core.Scheme = (*Chain)(nil)

// NewChain builds a chain over n receivers.
func NewChain(n int) (*Chain, error) {
	if n < 1 {
		return nil, fmt.Errorf("baseline: n must be >= 1, got %d", n)
	}
	return &Chain{N: n}, nil
}

// Name implements core.Scheme.
func (c *Chain) Name() string { return "chain" }

// NumReceivers implements core.Scheme.
func (c *Chain) NumReceivers() int { return c.N }

// SourceCapacity implements core.Scheme.
func (c *Chain) SourceCapacity() int { return 1 }

// Transmissions implements core.Scheme: the source emits packet t at slot t
// and node i relays the packet it received in the previous slot.
func (c *Chain) Transmissions(t core.Slot) []core.Transmission {
	out := make([]core.Transmission, 0, c.N)
	out = append(out, core.Transmission{From: core.SourceID, To: 1, Packet: core.Packet(int(t))})
	for i := 1; i < c.N; i++ {
		pkt := core.Packet(int(t) - i)
		if pkt < 0 {
			break
		}
		out = append(out, core.Transmission{
			From: core.NodeID(i), To: core.NodeID(i + 1), Packet: pkt,
		})
	}
	return out
}

// EachNeighbors implements core.Scheme: each node talks to its predecessor
// and successor only.
func (c *Chain) EachNeighbors(yield func(id core.NodeID, list []core.NodeID)) {
	var list [2]core.NodeID
	for i := 1; i <= c.N; i++ {
		list = [2]core.NodeID{core.NodeID(i - 1), core.NodeID(i + 1)} // NodeID(0) is the source
		yield(core.NodeID(i), list[:min(2, 1+c.N-i)])
	}
}

// Neighbors implements core.Scheme: the walk as a map.
func (c *Chain) Neighbors() map[core.NodeID][]core.NodeID {
	return core.NeighborMap(c.N, 2, c.EachNeighbors)
}

// SingleTree is the single b-ary multicast tree scheme: receivers occupy
// breadth-first positions 1..N below the source, and every interior node
// forwards each packet to all of its children in the slot after receiving
// it.
type SingleTree struct {
	N int
	B int
}

var _ core.Scheme = (*SingleTree)(nil)

// NewSingleTree builds a b-ary tree over n receivers.
func NewSingleTree(n, b int) (*SingleTree, error) {
	if n < 1 {
		return nil, fmt.Errorf("baseline: n must be >= 1, got %d", n)
	}
	if b < 2 {
		return nil, fmt.Errorf("baseline: branching must be >= 2, got %d", b)
	}
	return &SingleTree{N: n, B: b}, nil
}

// Name implements core.Scheme.
func (s *SingleTree) Name() string { return fmt.Sprintf("singletree(b=%d)", s.B) }

// NumReceivers implements core.Scheme.
func (s *SingleTree) NumReceivers() int { return s.N }

// SourceCapacity implements core.Scheme.
func (s *SingleTree) SourceCapacity() int { return s.B }

// depth returns the number of edges from the source to position p.
func (s *SingleTree) depth(p int) core.Slot {
	var d core.Slot
	for p > 0 {
		p = (p - 1) / s.B
		d++
	}
	return d
}

// Transmissions implements core.Scheme: position p receives packet j at slot
// j + depth(p) − 1.
func (s *SingleTree) Transmissions(t core.Slot) []core.Transmission {
	out := make([]core.Transmission, 0, s.N)
	for p := 1; p <= s.N; p++ {
		pkt := core.Packet(int(t-s.depth(p)) + 1)
		if pkt < 0 {
			continue
		}
		parent := (p - 1) / s.B
		out = append(out, core.Transmission{
			From: core.NodeID(parent), To: core.NodeID(p), Packet: pkt,
		})
	}
	return out
}

// EachNeighbors implements core.Scheme: each position's parent, then its
// children.
func (s *SingleTree) EachNeighbors(yield func(id core.NodeID, list []core.NodeID)) {
	buf := make([]core.NodeID, 0, 1+s.B)
	for p := 1; p <= s.N; p++ {
		list := append(buf[:0], core.NodeID((p-1)/s.B))
		for c := s.B*p + 1; c <= min(s.B*p+s.B, s.N); c++ {
			list = append(list, core.NodeID(c))
		}
		yield(core.NodeID(p), list)
	}
}

// Neighbors implements core.Scheme: the walk as a map.
func (s *SingleTree) Neighbors() map[core.NodeID][]core.NodeID {
	return core.NeighborMap(s.N, 1+s.B, s.EachNeighbors)
}

// SendCap returns the per-node send capacity this scheme requires: b for
// every node with at least one child, 0 upload for leaves.
func (s *SingleTree) SendCap(id core.NodeID) int {
	if id == core.SourceID {
		return s.B
	}
	if s.B*int(id)+1 <= s.N {
		return s.B
	}
	return 1
}

// UploadFactor returns how much more upload capacity an interior node needs
// than the streaming rate: exactly b.
func (s *SingleTree) UploadFactor() int { return s.B }
