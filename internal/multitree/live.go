package multitree

import (
	"fmt"
	"slices"
	"sort"

	"streamcast/internal/core"
)

// LiveScheme schedules a Dynamic family in place, without the Snapshot
// relabeling step, so the topology can change between slots while a run is
// in flight. It implements core.DynamicScheme.
//
// Member ids double as node ids and are stable across churn: a join revives
// a dummy id (or appends d fresh ids when the trees grow a level) and a
// leave tombstones its id. NumReceivers therefore reports the id space ever
// allocated — departed and dummy ids stay addressable but silent, which is
// what lets the slot engine keep its struct-of-arrays state and shard plan
// fixed across epochs.
//
// The schedule itself is the same positional round-robin as Scheme:
// firstRecvSlot depends only on (mode, d, position), so a membership swap
// changes who occupies a position but never when the position fires. The
// schedule stays exactly periodic with period d within every epoch, and each
// applied op bumps Epoch().
type LiveScheme struct {
	dy   *Dynamic
	mode core.StreamMode

	epoch uint64
	np    int // padded positions of the current epoch
	// firstRecv[k][p-1] is the slot at which position p of tree T_k
	// receives its round-0 packet. It depends on the position alone, so the
	// tables only ever grow: they cover the largest padded size reached and
	// the current epoch reads their first np entries.
	firstRecv [][]core.Slot
	steady    core.Slot
	// fires[r][k] lists, in position order, the epoch's padded positions of
	// tree k whose first receive slot is ≡ r (mod d) — Scheme's firing
	// lists by position, since who occupies a position is read when it
	// fires. A grow or shrink changes only the ends of the lists.
	fires [][][]liveFiring
	out   []core.Transmission // reused across Transmissions calls
}

// liveFiring is position p, its parent position pp (0 = the source), and
// when it fires: from slot first on, every d slots, with packet t − lag.
type liveFiring struct {
	p, pp      int32
	first, lag int32
}

var _ core.Scheme = (*LiveScheme)(nil)
var _ core.DynamicScheme = (*LiveScheme)(nil)

// NewLiveScheme wraps a churn-capable family with the positional round-robin
// schedule. The Dynamic is shared, not copied: ops applied through ApplyOps
// (or directly on dy, though that bypasses epoch versioning) are visible to
// subsequent Transmissions calls.
func NewLiveScheme(dy *Dynamic, mode core.StreamMode) *LiveScheme {
	s := &LiveScheme{dy: dy, mode: mode}
	s.rebuild()
	return s
}

// Dynamic returns the underlying family.
func (s *LiveScheme) Dynamic() *Dynamic { return s.dy }

// rebuild adopts the current padded size: it extends the firstRecv tables to
// cover it if they never have, recomputes the steady-state bound, and drops
// from or appends to the firing lists the positions the size change moved.
// steady is the maximum over all np positions (dummy-held ones included), so
// it is invariant under membership swaps and only changes when the trees grow
// or shrink a level.
func (s *LiveScheme) rebuild() {
	dy := s.dy
	listed := s.np
	s.np = dy.np
	s.steady = 0
	if s.firstRecv == nil {
		s.firstRecv = make([][]core.Slot, dy.d)
		s.fires = make([][][]liveFiring, dy.d)
		for r := range s.fires {
			s.fires[r] = make([][]liveFiring, dy.d)
		}
	}
	for k, fr := range s.firstRecv {
		for p := len(fr) + 1; p <= dy.np; p++ {
			fr = append(fr, firstRecvSlot(s.mode, dy.d, k, p))
		}
		s.firstRecv[k] = fr
		s.steady = max(s.steady, slices.Max(fr[:dy.np]))
		for _, lists := range s.fires {
			l := lists[k]
			for len(l) > 0 && int(l[len(l)-1].p) > dy.np {
				l = l[:len(l)-1]
			}
			lists[k] = l
		}
		for p := listed + 1; p <= dy.np; p++ {
			first := fr[p-1]
			r := int(first) % dy.d
			s.fires[r][k] = append(s.fires[r][k], liveFiring{
				p: int32(p), pp: int32(ParentPos(p, dy.d)),
				first: int32(first), lag: int32(int(first) - k),
			})
		}
	}
}

// Name implements core.Scheme.
func (s *LiveScheme) Name() string {
	return fmt.Sprintf("multitree-live(d=%d,%s)", s.dy.d, s.mode)
}

// NumReceivers implements core.Scheme: the size of the stable id space
// (live members, dummies, and tombstoned departures alike).
func (s *LiveScheme) NumReceivers() int { return len(s.dy.real) - 1 }

// SourceCapacity implements core.Scheme.
func (s *LiveScheme) SourceCapacity() int { return s.dy.d }

// SteadyState returns the first slot from which the current epoch's schedule
// repeats every d slots: the latest round-0 receive slot over all padded
// positions. A run's horizon reads it to leave room for the whole window.
func (s *LiveScheme) SteadyState() core.Slot { return s.steady }

// Epoch implements core.DynamicScheme.
func (s *LiveScheme) Epoch() uint64 { return s.epoch }

// Members implements core.DynamicScheme: live real members sorted by name.
func (s *LiveScheme) Members() []core.MemberInfo {
	dy := s.dy
	out := make([]core.MemberInfo, 0, dy.n)
	for id := 1; id < len(dy.real); id++ {
		if dy.alive[id] && dy.real[id] {
			out = append(out, core.MemberInfo{Node: core.NodeID(id), Name: dy.names[id]})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// ApplyOps implements core.DynamicScheme: each op is applied through the
// appendix add/delete algorithms, bumps the epoch, and triggers a firstRecv
// rebuild only when the padded size changed (grow/shrink).
func (s *LiveScheme) ApplyOps(t core.Slot, ops []core.TopologyOp) ([]core.ChurnStats, error) {
	out := make([]core.ChurnStats, 0, len(ops))
	for _, op := range ops {
		var st OpStats
		var err error
		var node core.NodeID
		if op.Leave {
			node = core.NodeID(s.dy.byName[op.Name])
			st, err = s.dy.Delete(op.Name)
		} else {
			st, err = s.dy.Add(op.Name)
			if err == nil {
				node = core.NodeID(s.dy.byName[op.Name])
			}
		}
		if err != nil {
			return out, fmt.Errorf("churn op at slot %d: %w", t, err)
		}
		s.epoch++
		if s.dy.np != s.np {
			s.rebuild()
		}
		out = append(out, core.ChurnStats{
			Node:     node,
			Leave:    op.Leave,
			Swaps:    st.Swaps,
			Affected: st.Affected,
			Grew:     st.Grew,
			Shrunk:   st.Shrunk,
			Epoch:    s.epoch,
		})
	}
	return out, nil
}

// Validate checks the family's full invariant set at the current epoch.
func (s *LiveScheme) Validate() error { return s.dy.Validate() }

// Neighbors implements core.Scheme over the live membership: for each live
// real member, the distinct nodes it exchanges packets with at the current
// epoch (parents may be the source; dummy children are skipped), in the
// order MultiTree.Neighbors lists them.
func (s *LiveScheme) Neighbors() map[core.NodeID][]core.NodeID {
	dy := s.dy
	out := make(map[core.NodeID][]core.NodeID, dy.n)
	rows := make([]core.NodeID, dy.n*2*dy.d) // one 2d-entry row per live real member
	lo := 0
	for id := 1; id < len(dy.real); id++ {
		if !dy.alive[id] || !dy.real[id] {
			continue
		}
		list := rows[lo : lo : lo+2*dy.d]
		lo += 2 * dy.d
		for k := 0; k < dy.d; k++ {
			p := dy.pos[k][id]
			pp := ParentPos(p, dy.d)
			if pp == 0 {
				list = core.AppendNeighbor(list, core.SourceID)
			} else {
				list = core.AppendNeighbor(list, core.NodeID(dy.trees[k][pp-1]))
			}
			if p <= dy.i {
				for c := 0; c < dy.d; c++ {
					child := dy.trees[k][ChildPos(p, c, dy.d)-1]
					if dy.real[child] {
						list = core.AppendNeighbor(list, core.NodeID(child))
					}
				}
			}
		}
		out[core.NodeID(id)] = list
	}
	return out
}

// Transmissions implements core.Scheme. The returned slice is reused across
// calls, as core.Scheme allows: it is valid until the next call.
func (s *LiveScheme) Transmissions(t core.Slot) []core.Transmission {
	if t < 0 {
		return nil
	}
	dy := s.dy
	out := s.out[:0]
	for k, list := range s.fires[int(t)%dy.d] {
		tk := dy.trees[k]
		for _, f := range list {
			if t < core.Slot(f.first) {
				continue
			}
			child := tk[f.p-1]
			if !dy.real[child] {
				continue
			}
			from := core.SourceID
			if f.pp > 0 {
				from = core.NodeID(tk[f.pp-1])
			}
			out = append(out, core.Transmission{
				From: from, To: core.NodeID(child),
				Packet: core.Packet(int(t) - int(f.lag)),
			})
		}
	}
	s.out = out
	return out[:len(out):len(out)]
}
