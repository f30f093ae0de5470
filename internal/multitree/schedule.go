package multitree

import (
	"fmt"
	"slices"

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
	// firstRecv[k][p-1] is the slot at which position p of tree T_k
	// receives its round-0 packet under the canonical (pre-recorded)
	// schedule.
	firstRecv [][]core.Slot
	// fires[r] lists, in (tree, position) order, the real positions whose
	// first receive slot is ≡ r (mod d): exactly the positions that can fire
	// in a slot t ≡ r.
	fires [][]firing
	warm  core.Slot           // the largest first over the firing lists (Period)
	out   []core.Transmission // reused across Transmissions calls
}

// firing is one real position of the round-robin: the edge into it, the slot
// it first receives in, and lag = first − k. Position (k,p) fires in slot t
// when t ≥ first and t ≡ first (mod d), with packet k + (t − first), which is
// t − lag.
type firing struct {
	from, to   int32
	first, lag int32
}

var _ core.Periodic = (*Scheme)(nil)

// NewScheme wraps a multi-tree family with a transmission schedule.
func NewScheme(m *MultiTree, mode core.StreamMode) *Scheme {
	s := &Scheme{Tree: m, Mode: mode}
	s.firstRecv = make([][]core.Slot, m.D)
	count := make([]int, m.D)
	for k := 0; k < m.D; k++ {
		s.firstRecv[k] = appendFirstRecv(make([]core.Slot, 0, m.NP), mode, m.D, k, m.NP)
		for p, first := range s.firstRecv[k] {
			if !m.IsDummy(m.Trees[k][p]) {
				count[int(first)%m.D]++
			}
		}
	}
	// One backing array for the d lists, each carved at its final size, and
	// an output buffer as long as the longest.
	s.out = make([]core.Transmission, 0, slices.Max(count))
	backing := make([]firing, 0, m.N*m.D)
	s.fires = make([][]firing, m.D)
	for r, c := range count {
		s.fires[r] = backing[len(backing) : len(backing) : len(backing)+c]
		backing = backing[:len(backing)+c]
	}
	for k := 0; k < m.D; k++ {
		for p := 1; p <= m.NP; p++ {
			child := m.Trees[k][p-1]
			if m.IsDummy(child) {
				continue
			}
			from := core.SourceID
			if pp := ParentPos(p, m.D); pp > 0 {
				from = m.Trees[k][pp-1]
			}
			first := s.firstRecv[k][p-1]
			s.warm = max(s.warm, first)
			r := int(first) % m.D
			s.fires[r] = append(s.fires[r], firing{
				from: int32(from), to: int32(child),
				first: int32(first), lag: int32(int(first) - k),
			})
		}
	}
	return s
}

// virtualSourceSlot returns the slot at the end of which the source is
// treated as "receiving" the round-0 packet of tree k. Every position's
// receive slot is then the first slot after its parent's whose residue mod d
// equals the position's child slot, so the residue pattern — and hence the
// collision-freedom proof — is identical in every mode.
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

// appendFirstRecv extends fr, the round-0 receive slots of tree k's positions
// 1..len(fr), to positions 1..np. A position receives in the first slot after
// its parent's whose residue mod d is its child slot; a parent's position is
// smaller than its child's, so one pass in position order finds every
// parent's slot already in fr. The result is purely positional — it depends
// on (mode, d, k, p) and never on which member occupies the position — which
// is what lets the live (churned) scheme keep a stable schedule across
// membership swaps.
func appendFirstRecv(fr []core.Slot, mode core.StreamMode, d, k, np int) []core.Slot {
	src := virtualSourceSlot(mode, d, k)
	for p := len(fr) + 1; p <= np; p++ {
		recv := src
		if pp := ParentPos(p, d); pp > 0 {
			recv = fr[pp-1]
		}
		delta := (core.Slot(ChildSlot(p, d)) - recv - 1) % core.Slot(d)
		if delta < 0 {
			delta += core.Slot(d)
		}
		fr = append(fr, recv+1+delta)
	}
	return fr
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

// Transmissions implements core.Scheme: it emits, for slot t, every edge
// delivery (parent → child) whose receive pattern fires at t, walking only
// the firing list of t's residue. Transfers to dummy children are suppressed.
func (s *Scheme) Transmissions(t core.Slot) []core.Transmission {
	if t < 0 {
		return nil
	}
	out := s.out[:0]
	list := s.fires[int(t)%len(s.fires)]
	for _, f := range list {
		if t < core.Slot(f.first) {
			continue
		}
		out = append(out, core.Transmission{
			From: core.NodeID(f.from), To: core.NodeID(f.to),
			Packet: core.Packet(int(t) - int(f.lag)),
		})
	}
	s.out = out
	return out[:len(out):len(out)]
}

// Period implements core.Periodic: warm is the largest first receive slot
// and P = d. Slot t walks fires[t mod d] in a fixed order and emits every
// firing whose first ≤ t, with packet t − lag. From warm on no firing is
// skipped, so slot t+d walks the same list, emits the same edges in the same
// order, and each packet is (t+d) − lag, d more than at t. This holds in all
// three modes: the mode moves only first and lag.
func (s *Scheme) Period() (warm, P core.Slot) {
	return s.warm, core.Slot(s.Tree.D)
}

// FirstRecvSlot returns the slot at which node id receives its first packet
// in tree k (round 0 of that tree). This is the quantity A(i,k) of the delay
// analysis, expressed as an absolute slot.
func (s *Scheme) FirstRecvSlot(k int, id core.NodeID) core.Slot {
	p := s.Tree.Pos(k, id)
	return s.firstRecv[k][p-1]
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
