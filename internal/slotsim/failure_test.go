package slotsim

import (
	"testing"

	"streamcast/internal/core"
)

// TestDropCreatesMissing: a dropped transmission leaves a hole that
// AllowIncomplete reports.
func TestDropCreatesMissing(t *testing.T) {
	s := &stubScheme{n: 1, srcCap: 1, slots: map[core.Slot][]core.Transmission{
		0: {tx(0, 1, 0)},
		1: {tx(0, 1, 1)},
		2: {tx(0, 1, 2)},
	}}
	drop := DropFunc(func(x core.Transmission, at core.Slot) bool { return x.Packet == 1 })
	res, cells, err := runCells(s, Options{Slots: 3, Packets: 3, Inject: drop, AllowIncomplete: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Missing[1] != 1 {
		t.Errorf("missing %d, want 1", res.Missing[1])
	}
	// Packets 0 and 2 arrived on time: start delay 0, one hiccup (packet 1).
	if res.StartDelay[1] != 0 {
		t.Errorf("start %d, want 0", res.StartDelay[1])
	}
	if got := cells.Hiccups(1, res.StartDelay[1]); got != 1 {
		t.Errorf("hiccups %d, want 1", got)
	}
	// Without AllowIncomplete the same run errors out.
	if _, err := Run(s, Options{Slots: 3, Packets: 3, Inject: drop}); err == nil {
		t.Error("incomplete run accepted without AllowIncomplete")
	}
}

// TestLossCascade: when a relay never received its packet, SkipUnavailable
// cascades the loss instead of flagging a violation.
func TestLossCascade(t *testing.T) {
	// S -> 1 -> 2 chain; the S->1 copy of packet 0 is lost.
	s := &stubScheme{n: 2, srcCap: 1, slots: map[core.Slot][]core.Transmission{}}
	for u := core.Slot(0); u < 6; u++ {
		s.slots[u] = append(s.slots[u], tx(0, 1, core.Packet(u)))
		if u >= 1 {
			s.slots[u] = append(s.slots[u], tx(1, 2, core.Packet(u-1)))
		}
	}
	drop := DropFunc(func(x core.Transmission, at core.Slot) bool {
		return x.From == 0 && x.Packet == 0
	})
	res, cells, err := runCells(s, Options{
		Slots: 6, Packets: 4,
		Inject: drop, AllowIncomplete: true, SkipUnavailable: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Both nodes miss exactly packet 0; later packets flow normally.
	for id := 1; id <= 2; id++ {
		if res.Missing[id] != 1 {
			t.Errorf("node %d missing %d, want 1", id, res.Missing[id])
		}
		if cells.At(core.NodeID(id), 1) == -1 || cells.At(core.NodeID(id), 3) == -1 {
			t.Errorf("node %d lost packets beyond the injected one", id)
		}
	}
}

// TestHiccupsCounting checks the helper against a fixed start.
func TestHiccupsCounting(t *testing.T) {
	s := &stubScheme{n: 1, srcCap: 1, slots: map[core.Slot][]core.Transmission{
		0: {tx(0, 1, 0)},
		3: {tx(0, 1, 1)}, // 2 slots late for start=0
		4: {tx(0, 1, 2)},
	}}
	_, cells, err := runCells(s, Options{Slots: 5, Packets: 3})
	if err != nil {
		t.Fatal(err)
	}
	if got := cells.Hiccups(1, 0); got != 2 {
		t.Errorf("hiccups at start 0: %d, want 2", got)
	}
	if got := cells.Hiccups(1, 2); got != 0 {
		t.Errorf("hiccups at start 2: %d, want 0", got)
	}
}
