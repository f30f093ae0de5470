package multitree

import (
	"testing"

	"streamcast/internal/core"
	"streamcast/internal/slotsim"
)

// TestLossConfinedToSubtree injects a single packet loss on the source's
// edge to position 1 of tree T_0 and checks the blast radius: exactly the
// nodes in that subtree miss exactly the packets of tree 0's first round,
// while every other packet still flows on schedule — the per-tree isolation
// that motivates splitting the stream over d trees.
func TestLossConfinedToSubtree(t *testing.T) {
	m, err := New(40, 3, Greedy)
	if err != nil {
		t.Fatal(err)
	}
	s := NewScheme(m, core.PreRecorded)
	victim := m.Trees[0][0] // node at position 1 of T_0

	drop := func(x core.Transmission, at core.Slot) bool {
		return x.From == core.SourceID && x.To == victim && x.Packet == 0
	}
	cells := new(slotsim.Arrivals)
	res, err := slotsim.Run(s, slotsim.Options{
		Slots:           core.Slot(m.Height()*3 + 18),
		Packets:         9,
		Arrivals:        cells,
		Inject:          slotsim.DropFunc(drop),
		AllowIncomplete: true,
		SkipUnavailable: true,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Compute the subtree of position 1 in T_0.
	inSubtree := map[core.NodeID]bool{}
	var walk func(p int)
	walk = func(p int) {
		if p > m.NP {
			return
		}
		id := m.Trees[0][p-1]
		if !m.IsDummy(id) {
			inSubtree[id] = true
		}
		if p <= m.I {
			for c := 0; c < m.D; c++ {
				walk(ChildPos(p, c, m.D))
			}
		}
	}
	walk(1)

	for id := 1; id <= m.N; id++ {
		nid := core.NodeID(id)
		if inSubtree[nid] {
			if res.Missing[id] != 1 {
				t.Errorf("subtree node %d missing %d packets, want exactly 1", id, res.Missing[id])
			}
			if cells.At(core.NodeID(id), 0) != -1 {
				t.Errorf("subtree node %d received packet 0 despite the drop", id)
			}
		} else if res.Missing[id] != 0 {
			t.Errorf("node %d outside the subtree missing %d packets", id, res.Missing[id])
		}
		// Packets of trees 1 and 2 are never affected.
		for j := 1; j < 9; j++ {
			if j%3 != 0 && cells.At(core.NodeID(id), core.Packet(j)) == -1 {
				t.Errorf("node %d lost packet %d of an unaffected tree", id, j)
			}
		}
	}
}

// TestLossHiccupBudget: with one lost packet, every affected node suffers
// exactly one hiccup at its unperturbed start delay.
func TestLossHiccupBudget(t *testing.T) {
	m, err := New(25, 2, Structured)
	if err != nil {
		t.Fatal(err)
	}
	s := NewScheme(m, core.PreRecorded)
	drop := func(x core.Transmission, at core.Slot) bool {
		return x.From == core.SourceID && x.To == m.Trees[1][0] && x.Packet == 1
	}
	cells := new(slotsim.Arrivals)
	res, err := slotsim.Run(s, slotsim.Options{
		Slots:           core.Slot(m.Height()*2 + 16),
		Packets:         8,
		Arrivals:        cells,
		Inject:          slotsim.DropFunc(drop),
		AllowIncomplete: true,
		SkipUnavailable: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	for id := 1; id <= m.N; id++ {
		start := s.AnalyticStartDelay(core.NodeID(id))
		h := cells.Hiccups(core.NodeID(id), start)
		if h != res.Missing[id] {
			t.Errorf("node %d: %d hiccups vs %d missing", id, h, res.Missing[id])
		}
	}
}
