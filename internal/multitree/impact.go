package multitree

import (
	"slices"

	"streamcast/internal/core"
)

// MemberImpact quantifies what one churn operation does to one surviving
// member's playback, under pipeline continuity: tree positions keep their
// slot patterns across the operation (swaps preserve residues by
// construction), so a member that moved between positions experiences the
// difference between the two positions' delivery schedules.
type MemberImpact struct {
	// Node is the member's stable id.
	Node core.NodeID
	// MissedPackets counts stream packets the member skips because its
	// new position's pipeline is ahead of its old one (moved shallower):
	// these are the hiccups the paper attributes to churn.
	MissedPackets int
	// StallRounds counts rounds during which the new position's pipeline
	// re-delivers packets the member already holds (moved deeper): no
	// data loss, but no fresh data either, so playback may pause while
	// the member re-buffers.
	StallRounds int
	// StartDelayChange is the change in the member's steady-state
	// playback delay (new − old, in slots).
	StartDelayChange core.Slot
}

// ChurnImpact reports, in id order, what the last Apply on s did to the
// schedule s gives every member live both before and after it. A
// position's first receive slot depends only on (mode, d, tree, position),
// and a live member changes position only through the op's swaps, so its
// position before the op is its position now with those swaps undone. A
// member whose first receive slots all stay put is left out, and so is the
// member the op revived: it had no prior schedule.
func ChurnImpact(s *LiveScheme) []MemberImpact {
	m, mode := s.m, s.sched.Mode
	var ids []core.NodeID
	for _, sw := range s.swaps {
		// A survivor ends the op where its last swap put it; a position past
		// NP was discarded with the dummy on it.
		for _, p := range [2]int{sw.a, sw.b} {
			if p > m.NP {
				continue
			}
			if id := m.Trees[sw.k][p-1]; !m.IsDummy(id) && id != s.flipped {
				ids = append(ids, id)
			}
		}
	}
	slices.Sort(ids)
	var out []MemberImpact
	for _, id := range slices.Compact(ids) {
		im := MemberImpact{Node: id}
		var before, after core.Slot = -1 << 30, -1 << 30
		changed := false
		for k, pos := range m.pos {
			now := pos[id]
			was := now
			for i := len(s.swaps) - 1; i >= 0; i-- {
				if sw := s.swaps[i]; sw.k == k && was == sw.a {
					was = sw.b
				} else if sw.k == k && was == sw.b {
					was = sw.a
				}
			}
			oldRecv, newRecv := firstRecv(mode, m.D, k, was), firstRecv(mode, m.D, k, now)
			before = max(before, oldRecv-core.Slot(k))
			after = max(after, newRecv-core.Slot(k))
			if oldRecv == newRecv {
				continue
			}
			changed = true
			// Same residue class by construction, so the difference is a
			// whole number of rounds.
			if diff := int(oldRecv-newRecv) / m.D; diff > 0 {
				im.MissedPackets += diff
			} else {
				im.StallRounds -= diff
			}
		}
		if changed {
			im.StartDelayChange = after - before
			out = append(out, im)
		}
	}
	return out
}
