package slotsim

import "streamcast/internal/core"

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
	for _, m := range members {
		if m.Leave >= 0 || m.Node < 1 || int(m.Node) > r.N {
			continue
		}
		// A joiner owes playback only from the live edge at its join slot:
		// the schedule never re-sends rounds produced before it arrived.
		j0 := int(m.Join)
		if j0 > np {
			j0 = np
		}
		if j0 >= np {
			continue
		}
		// Commit a start delay from the probe prefix; a node whose probe
		// window was entirely lost falls back to its final worst lag.
		start := core.Slot(noLag)
		for j := j0; j < np && j < j0+probe; j++ {
			if a := cells.At(m.Node, core.Packet(j)); a != unset {
				if lag := a - core.Slot(j); lag > start {
					start = lag
				}
			}
		}
		if start == core.Slot(noLag) {
			start = r.StartDelay[m.Node]
		}
		s.Nodes++
		s.Expected += np - j0
		run := core.Slot(0)
		for j := j0; j < np; j++ {
			a := cells.At(m.Node, core.Packet(j))
			if a == unset || a > start+core.Slot(j) {
				s.Hiccups++
				run++
				if run > s.MaxStall {
					s.MaxStall = run
				}
				if firstChurn >= 0 {
					// The gap packet's playback slot ends this node's
					// repair interval.
					if ttr := start + core.Slot(j) + 1 - firstChurn; ttr > s.TimeToRepair {
						s.TimeToRepair = ttr
					}
				}
				continue
			}
			if run > 0 {
				s.Gaps++
				run = 0
			}
		}
		if run > 0 {
			s.Gaps++
		}
	}
	if s.Expected > 0 {
		s.RebufferRatio = float64(s.Hiccups) / float64(s.Expected)
	}
	if s.TimeToRepair < 0 {
		s.TimeToRepair = 0
	}
	return s
}
