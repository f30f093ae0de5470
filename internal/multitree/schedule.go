package multitree

import (
	"fmt"

	"streamcast/internal/core"
)

// Scheme executes the round-robin transmission schedule of Section 2.2.3 on
// a multi-tree family. It implements core.Scheme.
//
// The schedule: in slot t with r = t mod d and m = t div d, the source sends
// packet k + m·d to its r-th child in tree T_k, and every interior node of
// T_k relays the newest tree-k packet it holds to its r-th child. Packet j
// belongs to tree j mod d; each node receives exactly one packet per slot in
// steady state and the positions-distinct-mod-d property of the construction
// guarantees no receive collisions.
//
// Three stream modes are supported:
//   - PreRecorded: the canonical schedule (all packets available at slot 0).
//   - LivePreBuffered: the canonical schedule delayed by d slots, so packet
//     k+m·d is never sent before it has been produced.
//   - Live: the pipelined schedule — tree T_k's packet numbering lags k
//     slots so that packet k+m·d is first transmitted at slot k+m·d, the
//     earliest slot at which a live source has produced it.
type Scheme struct {
	Tree *MultiTree
	Mode core.StreamMode
	// fires[r][k] lists, in position order, the positions p of tree T_k
	// with p − 1 ≡ r (mod d). A position first receives in a slot ≡ its
	// child slot (p − 1) mod d, so these are exactly the positions of T_k
	// that can fire in a slot t ≡ r, and position p is entry (p − 1)/d of
	// its list. Every list holds NP/d entries.
	fires [][][]firing
	// warm is the largest first over the real positions the builder
	// listed. It is Period's warm for a static Scheme, which is built once;
	// LiveScheme's patches do not keep it, and LiveScheme declares no
	// Period.
	warm core.Slot
	out  []core.Transmission // reused across Transmissions calls
}

// firing is one position (k, p) of the round-robin: the occupant of its
// parent position (the source at the top), its own occupant (0 while a
// dummy holds it: a dummy receives nothing), the slot it first receives in,
// and lag = first − k. It fires in slot t when t ≥ first and t ≡ first
// (mod d), with packet k + (t − first), which is t − lag.
type firing struct {
	from, to   int32
	first, lag int32
}

var _ core.Periodic = (*Scheme)(nil)

// NewScheme wraps a multi-tree family with a transmission schedule.
func NewScheme(m *MultiTree, mode core.StreamMode) *Scheme {
	s := &Scheme{Tree: m, Mode: mode}
	s.resize()
	return s
}

// resize fits the firing lists to the tree's padded size NP: it drops the
// entries past NP and appends the positions from the lists' end up to NP,
// reading each one's first receive slot off its parent's entry and its
// occupants off the tree. NewScheme builds the lists with it from empty, in
// one backing array carved to their final sizes; LiveScheme calls it after
// every op, and it moves the ends of the lists only when the op grew or
// shrank the trees.
func (s *Scheme) resize() {
	m := s.Tree
	d := m.D
	if s.fires == nil {
		size := m.NP / d
		backing := make([]firing, size*d*d)
		s.fires = make([][][]firing, d)
		for r := range s.fires {
			s.fires[r] = make([][]firing, d)
			for k := range s.fires[r] {
				i := (r*d + k) * size
				s.fires[r][k] = backing[i : i : i+size]
			}
		}
	}
	if cap(s.out) < m.NP {
		s.out = make([]core.Transmission, 0, m.NP)
	}
	for k := 0; k < d; k++ {
		for _, lists := range s.fires {
			lists[k] = lists[k][:min(len(lists[k]), m.NP/d)]
		}
		src := virtualSourceSlot(s.Mode, d, k)
		for p := d*len(s.fires[0][k]) + 1; p <= m.NP; p++ {
			recv, from := src, core.SourceID
			if pp := ParentPos(p, d); pp > 0 {
				recv, from = core.Slot(s.at(k, pp).first), m.Trees[k][pp-1]
			}
			first := nextRecv(recv, p, d)
			to := s.receiver(m.Trees[k][p-1])
			if to != 0 {
				s.warm = max(s.warm, first)
			}
			r := ChildSlot(p, d)
			s.fires[r][k] = append(s.fires[r][k], firing{
				from: int32(from), to: int32(to),
				first: int32(first), lag: int32(int(first) - k),
			})
		}
	}
}

// at returns the entry of position p of tree k.
func (s *Scheme) at(k, p int) *firing {
	d := s.Tree.D
	return &s.fires[(p-1)%d][k][(p-1)/d]
}

// receiver is the to of a position id occupies: id, or 0 for a dummy.
func (s *Scheme) receiver(id core.NodeID) core.NodeID {
	if s.Tree.IsDummy(id) {
		return 0
	}
	return id
}

// repoint re-reads the occupants of position p of tree k after an op moved
// them: the entry's own to, and the from of its children's entries. A
// position past NP, which a shrink discarded, has no entry, nor has
// position 0, where a discarded member sits.
func (s *Scheme) repoint(k, p int) {
	m := s.Tree
	if p < 1 || p > m.NP {
		return
	}
	id := m.Trees[k][p-1]
	s.at(k, p).to = int32(s.receiver(id))
	for c := 0; c < m.D; c++ {
		if cp := ChildPos(p, c, m.D); cp <= m.NP {
			s.at(k, cp).from = int32(id)
		}
	}
}

// virtualSourceSlot returns the slot at the end of which the source is
// treated as "receiving" the round-0 packet of tree k. Every position's
// receive slot is then the first slot after its parent's whose residue mod d
// equals the position's child slot, so the residue pattern — and hence the
// collision-freedom proof — is identical in every mode. The result is purely
// positional — it depends on (mode, d, k, p) and never on which member
// occupies the position — which is what lets the live (churned) scheme keep
// its firing lists across membership swaps.
//
//   - PreRecorded: −1 (everything available before slot 0).
//   - Live (pipelined): k−1, so packet k+m·d is first transmitted exactly at
//     slot k+m·d, when a live source has just produced it.
//   - LivePreBuffered: d−1, the paper's "accumulate d packets first"
//     variant; a uniform d-slot shift for all trees.
func virtualSourceSlot(mode core.StreamMode, d, k int) core.Slot {
	switch mode {
	case core.Live:
		return core.Slot(k) - 1
	case core.LivePreBuffered:
		return core.Slot(d) - 1
	default:
		return -1
	}
}

// nextRecv returns the slot position p first receives in when its parent
// first received in slot recv: the first slot after recv whose residue mod
// d is p's child slot.
func nextRecv(recv core.Slot, p, d int) core.Slot {
	dd, r := core.Slot(d), core.Slot(ChildSlot(p, d))
	return recv + 1 + ((r-recv-1)%dd+dd)%dd
}

// firstRecv returns the slot position p of tree k first receives in under
// mode: nextRecv down the path from the source. It is what Scheme's entry
// for (k, p) holds, read without a Scheme.
func firstRecv(mode core.StreamMode, d, k, p int) core.Slot {
	recv := virtualSourceSlot(mode, d, k)
	if pp := ParentPos(p, d); pp > 0 {
		recv = firstRecv(mode, d, k, pp)
	}
	return nextRecv(recv, p, d)
}

// Name implements core.Scheme.
func (s *Scheme) Name() string {
	return fmt.Sprintf("multitree(d=%d,%s)", s.Tree.D, s.Mode)
}

// NumReceivers implements core.Scheme.
func (s *Scheme) NumReceivers() int { return s.Tree.N }

// SourceCapacity implements core.Scheme.
func (s *Scheme) SourceCapacity() int { return s.Tree.D }

// Neighbors implements core.Scheme.
func (s *Scheme) Neighbors() map[core.NodeID][]core.NodeID {
	return s.Tree.Neighbors()
}

// EachNeighbors is MultiTree.EachNeighbors: core.EachNeighbors without the map.
func (s *Scheme) EachNeighbors(yield func(id core.NodeID, list []core.NodeID)) {
	s.Tree.EachNeighbors(yield)
}

// MaxNeighbors is MultiTree.MaxNeighbors: core.MaxNeighbors without the map.
func (s *Scheme) MaxNeighbors() int { return s.Tree.MaxNeighbors() }

// Transmissions implements core.Scheme: it emits, for slot t, every edge
// delivery (parent → child) whose receive pattern fires at t, walking only
// the firing lists of t's residue, tree by tree. Positions held by dummies
// are skipped.
func (s *Scheme) Transmissions(t core.Slot) []core.Transmission {
	if t < 0 {
		return nil
	}
	out := s.out[:0]
	for _, list := range s.fires[int(t)%len(s.fires)] {
		for _, f := range list {
			if t >= core.Slot(f.first) && f.to != 0 {
				out = append(out, core.Transmission{
					From: core.NodeID(f.from), To: core.NodeID(f.to),
					Packet: core.Packet(int(t) - int(f.lag)),
				})
			}
		}
	}
	s.out = out
	return out[:len(out):len(out)]
}

// Period implements core.Periodic: warm is the largest first receive slot
// of a real position and P = d. Slot t walks fires[t mod d] in a fixed
// order and emits every real position whose first ≤ t, with packet t − lag.
// From warm on no real position is skipped, so slot t+d
// walks the same lists, emits the same edges in the same order, and each
// packet is d more than at t. This holds in all three modes: the mode moves
// only first and lag.
func (s *Scheme) Period() (warm, P core.Slot) {
	return s.warm, core.Slot(s.Tree.D)
}

// FirstRecvSlot returns the slot at which node id receives its first packet
// in tree k (round 0 of that tree). This is the quantity A(i,k) of the delay
// analysis, expressed as an absolute slot.
func (s *Scheme) FirstRecvSlot(k int, id core.NodeID) core.Slot {
	return core.Slot(s.at(k, s.Tree.Pos(k, id)).first)
}

// AnalyticStartDelay returns the earliest no-hiccup playback start slot for
// node id, derived from the closed-form schedule: the node receives the
// round-m packet of tree k at FirstRecvSlot(k,id) + m·d, so packet
// j = k + m·d lags behind slot j by FirstRecvSlot(k,id) − k, and playback
// of packet j can happen at slot (worst lag) + j — at the earliest in the
// arrival slot itself.
func (s *Scheme) AnalyticStartDelay(id core.NodeID) core.Slot {
	var worst core.Slot = -1 << 30
	for k := 0; k < s.Tree.D; k++ {
		if lag := s.FirstRecvSlot(k, id) - core.Slot(k); lag > worst {
			worst = lag
		}
	}
	return worst
}

// WorstAnalyticStartDelay returns the largest AnalyticStartDelay over the
// receivers 1..N, and 0 if none is positive.
func (s *Scheme) WorstAnalyticStartDelay() core.Slot {
	var worst core.Slot
	for id := 1; id <= s.Tree.N; id++ {
		worst = max(worst, s.AnalyticStartDelay(core.NodeID(id)))
	}
	return worst
}
