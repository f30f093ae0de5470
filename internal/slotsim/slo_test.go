package slotsim

import (
	"math/rand/v2"
	"testing"

	"streamcast/internal/core"
)

// playbackSLORef is PlaybackSLO as it was written against node-major cells:
// one member at a time, one packet at a time, branching on every gap. It is
// the oracle for the packet-major walk.
func playbackSLORef(r *Result, cells *Arrivals, members []Membership, probe int, firstChurn core.Slot) SLO {
	if probe < 1 {
		probe = 1
	}
	np := int(r.Packets)
	var s SLO
	for _, m := range members {
		if m.Leave >= 0 || m.Node < 1 || int(m.Node) > r.N {
			continue
		}
		j0 := min(int(m.Join), np)
		if j0 >= np {
			continue
		}
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

// TestPlaybackSLOMatchesReference holds PlaybackSLO to the per-member
// reference on seeded windows: cells missing or late at every rate, arrivals
// ahead of their packet (negative lags, so a start delay can be negative),
// members listed out of id order, joiners owing only a suffix of the window
// or none of it, departed members, ids out of range, the same id listed
// twice, and every position of the first churn op, none included.
func TestPlaybackSLOMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 11))
	for trial := 0; trial < 300; trial++ {
		n, np := 1+rng.IntN(200), 1+rng.IntN(150)
		stride := n + 1 + rng.IntN(3)
		cells := new(Arrivals)
		cells.size(stride, core.Packet(np), []core.Slot{255, 65535, 65536}[rng.IntN(3)])
		lossy, late := rng.Float64(), rng.IntN(8)
		for j := 0; j < np; j++ {
			for id := 1; id < stride; id++ {
				if rng.Float64() < lossy/2 {
					continue
				}
				at := max(j+rng.IntN(late+1)-rng.IntN(3), 0)
				cells.store.note(core.Slot(at), stride, core.Packet(np), []core.Transmission{{To: core.NodeID(id), Packet: core.Packet(j)}})
			}
		}
		r := &Result{N: n, Packets: core.Packet(np), StartDelay: make([]core.Slot, n+1)}
		for id := range r.StartDelay {
			r.StartDelay[id] = core.Slot(rng.IntN(late + 2))
		}
		members := make([]Membership, rng.IntN(2*n+2))
		for i := range members {
			m := Membership{Node: core.NodeID(rng.IntN(n+3) - 1), Leave: -1}
			if rng.IntN(4) == 0 {
				m.Join = core.Slot(rng.IntN(np + 5))
			}
			if rng.IntN(6) == 0 {
				m.Leave = m.Join + core.Slot(rng.IntN(10))
			}
			members[i] = m
		}
		probe := rng.IntN(5)
		firstChurn := core.Slot(rng.IntN(np+10) - 1)
		want := playbackSLORef(r, cells, members, probe, firstChurn)
		if got := PlaybackSLO(r, cells, members, probe, firstChurn); got != want {
			t.Fatalf("trial %d (n=%d packets=%d members=%d probe=%d first churn %d):\n got %+v\nwant %+v",
				trial, n, np, len(members), probe, firstChurn, got, want)
		}
	}
}
