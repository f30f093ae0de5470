package slotsim

import (
	"strings"
	"testing"

	"streamcast/internal/core"
)

// TestLatencyBelowOneRejected: a LatencyFunc returning zero or a negative
// value is a configuration error, not a schedule violation — the engine must
// fail fast with a clear message instead of corrupting the in-flight
// bookkeeping (a latency of 0 would deliver a packet one slot before it was
// sent).
func TestLatencyBelowOneRejected(t *testing.T) {
	for _, bad := range []core.Slot{0, -2} {
		s := &stubScheme{n: 2, srcCap: 1, slots: map[core.Slot][]core.Transmission{
			0: {tx(0, 1, 0)},
		}}
		_, err := Run(s, Options{
			Slots: 2, Packets: 1,
			Latency: func(from, to core.NodeID) core.Slot { return bad },
		})
		if err == nil {
			t.Fatalf("latency %d: no error", bad)
		}
		if !strings.Contains(err.Error(), "at least 1") {
			t.Errorf("latency %d: error %q does not explain the constraint", bad, err)
		}
	}
}

// TestLatencyAndDropMissing: a packet dropped in flight behind a 2-slot
// source link is reported missing at the node it never reached.
func TestLatencyAndDropMissing(t *testing.T) {
	s := &stubScheme{n: 2, srcCap: 1, slots: map[core.Slot][]core.Transmission{}}
	for u := core.Slot(0); u < 8; u++ {
		s.slots[u] = append(s.slots[u], tx(0, 1, core.Packet(u)))
		if u >= 2 {
			s.slots[u] = append(s.slots[u], tx(1, 2, core.Packet(u-2)))
		}
	}
	lat := func(from, to core.NodeID) core.Slot {
		if from == 0 {
			return 2
		}
		return 1
	}
	drop := func(x core.Transmission, at core.Slot) bool {
		return x.To == 2 && x.Packet == 1
	}
	res, err := Run(s, Options{
		Slots: 8, Packets: 4, Latency: lat,
		Drop: drop, AllowIncomplete: true, SkipUnavailable: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Missing[2] != 1 {
		t.Errorf("dropped packet not missing: %v", res.Missing)
	}
}
