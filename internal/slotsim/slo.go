package slotsim

import (
	"cmp"
	"slices"

	"streamcast/internal/core"
)

// Playback SLOs for churned runs. A static run's quality is fully described
// by StartDelay/MaxBuffer; under live churn the interesting quantities are
// instead the interruptions: how often a committed playback position runs
// dry (a repair gap), how long the worst stall lasts, and how long after the
// churn began the scheme took to stop producing gaps.

// Membership records one node id's lifetime within a churned run. The churn
// source maintains these windows (see faults.LiveChurn.Membership); node ids
// are stable, so an id's Result row belongs to the member named here for
// slots within [Join, Leave).
type Membership struct {
	Node core.NodeID
	Name string
	// Join is the first slot the member was part of the topology (0 for
	// initial members).
	Join core.Slot
	// Leave is the slot the member departed, or -1 if still live at the end
	// of the run.
	Leave core.Slot
}

// SLO aggregates playback-quality metrics over the members still live at
// the end of a churned run. Playback commitment is modeled per node: each
// node probes its first few expected packets to pick a start delay (as a
// real player buffers before starting), commits to it, and then every
// window packet that is missing or arrives after its committed playback
// slot is a hiccup.
type SLO struct {
	// Nodes is the number of members measured (live at run end).
	Nodes int
	// Expected is the total number of window packets measured across them.
	Expected int
	// Hiccups is the total number of gap packets (missing or late).
	Hiccups int
	// Gaps is the number of maximal runs of consecutive gap packets — the
	// count of distinct playback interruptions.
	Gaps int
	// MaxStall is the length, in slots, of the longest single interruption.
	MaxStall core.Slot
	// RebufferRatio is Hiccups/Expected: the fraction of playback time
	// spent stalled.
	RebufferRatio float64
	// TimeToRepair is the worst, over all measured nodes, of the span from
	// the first churn op to the end of the node's last interruption — how
	// long the system took to fully absorb the churn. Zero when there were
	// no gaps or no churn.
	TimeToRepair core.Slot
}

// PlaybackSLO computes the hiccup/rebuffer SLOs of a churned run from its
// Result and the arrival cells it kept (Options.Arrivals). members
// lists the membership windows (only members with Leave < 0 are measured —
// a departed member owes no playback); probe is the number of leading
// expected packets a node samples before committing to its start delay
// (clamped to at least 1); firstChurn is the slot of the first applied churn
// op, or -1 for none (TimeToRepair is then 0).
func PlaybackSLO(r *Result, cells *Arrivals, members []Membership, probe int, firstChurn core.Slot) SLO {
	if probe < 1 {
		probe = 1
	}
	np := int(r.Packets)
	var s SLO
	// The members owed playback, ordered by the first packet they owe and
	// then by id: a joiner owes playback only from the live edge at its join
	// slot, since the schedule never re-sends rounds produced before it
	// arrived.
	var owing []owed
	for _, m := range members {
		if m.Leave >= 0 || m.Node < 1 || int(m.Node) > r.N {
			continue
		}
		if j0 := min(int(m.Join), np); j0 < np {
			owing = append(owing, owed{int32(j0), int32(m.Node)})
		}
	}
	slices.SortFunc(owing, func(a, b owed) int {
		if c := cmp.Compare(a.from, b.from); c != 0 {
			return c
		}
		return cmp.Compare(a.id, b.id)
	})
	// Per-member state in flat arrays: the id, the start delay it commits
	// to, and its current gap run.
	n := len(owing)
	ids, start, run := make([]int32, n), make([]int32, n), make([]int32, n)
	for i, o := range owing {
		ids[i] = o.id
		// Commit a start delay from the probe prefix; a node whose probe
		// window was entirely lost falls back to its final worst lag.
		st := core.Slot(noLag)
		for j := int(o.from); j < np && j < int(o.from)+probe; j++ {
			if a := cells.At(core.NodeID(o.id), core.Packet(j)); a != unset {
				st = max(st, a-core.Slot(j))
			}
		}
		if st == core.Slot(noLag) {
			st = r.StartDelay[o.id]
		}
		start[i] = int32(st)
		s.Expected += np - int(o.from)
	}
	s.Nodes = n
	hiccups, gaps, stall, reach := cells.store.walk(cells.stride, np, owing, ids, start, run)
	s.Hiccups, s.Gaps, s.MaxStall = hiccups, gaps, core.Slot(stall)
	if firstChurn >= 0 {
		// A slot no gap reached is 0, at or before the first churn op.
		s.TimeToRepair = max(core.Slot(reach)-firstChurn, 0)
	}
	if s.Expected > 0 {
		s.RebufferRatio = float64(s.Hiccups) / float64(s.Expected)
	}
	return s
}

// owed is a member owed playback: its id and the first window packet it is
// owed.
type owed struct{ from, id int32 }

// walk is PlaybackSLO's pass over the window. The record is packet-major, so
// the window is walked a packet row at a time: each member owing the packet —
// a prefix of them, as owing is sorted — reads its cell of the row, in id
// order so that the row streams, and carries its gap run on to the next row.
// It returns the gap packets, the gap runs, the longest run and the latest
// slot a gap reached (a gap packet's playback slot + 1). Whether a packet is a
// gap is close to a coin flip, so the walk counts without branching on it.
func (c cells[T]) walk(stride, packets int, owing []owed, ids, start, run []int32) (hiccups, gaps, stall, reach int) {
	owes := 0
	for j := 0; j < packets; j++ {
		for owes < len(owing) && int(owing[owes].from) <= j {
			owes++
		}
		row := c[j*stride : (j+1)*stride]
		st, gr := start[:owes], run[:owes]
		for i, id := range ids[:owes] {
			// An unset cell (0) wraps to the largest uint32: later than any
			// playback slot.
			play := int(st[i]) + j
			gap := b2i(int(uint32(row[id])-1) > play)
			cur := (int(gr[i]) + 1) * gap
			gr[i] = int32(cur)
			hiccups += gap
			gaps += b2i(cur == 1)
			stall = max(stall, cur)
			// A gap packet's playback slot ends its member's repair interval.
			reach = max(reach, gap*(play+1))
		}
	}
	return hiccups, gaps, stall, reach
}

// b2i is 1 for true and 0 for false; the compiler turns it into a flag
// move, not a branch.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
