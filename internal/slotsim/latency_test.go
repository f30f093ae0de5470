package slotsim

import (
	"strings"
	"testing"

	"streamcast/internal/core"
)

// delayBy is an Injector that loses nothing and adds a fixed number of slots
// to every link.
type delayBy core.Slot

func (delayBy) DropTx(core.Transmission, core.Slot) bool { return false }

func (d delayBy) DelayTx(core.Transmission, core.Slot) core.Slot { return core.Slot(d) }

// lossyLinks asks drop before lat, the order faults' chain keeps.
type lossyLinks struct {
	drop DropFunc
	lat  LatencyFunc
}

func (l lossyLinks) DropTx(tx core.Transmission, t core.Slot) bool { return l.drop(tx, t) }

func (l lossyLinks) DelayTx(tx core.Transmission, t core.Slot) core.Slot {
	return l.lat.DelayTx(tx, t)
}

// TestLatencyBelowOneRejected: a LatencyFunc returning zero or a negative
// value, or an Injector whose DelayTx is negative, is a configuration error,
// not a schedule violation — the engine must fail fast with a clear message
// instead of corrupting the in-flight bookkeeping (a latency of 0 would
// deliver a packet one slot before it was sent).
func TestLatencyBelowOneRejected(t *testing.T) {
	for name, in := range map[string]Injector{
		"latency 0":  LatencyFunc(func(from, to core.NodeID) core.Slot { return 0 }),
		"latency -2": LatencyFunc(func(from, to core.NodeID) core.Slot { return -2 }),
		"delay -1":   delayBy(-1),
	} {
		s := &stubScheme{n: 2, srcCap: 1, slots: map[core.Slot][]core.Transmission{
			0: {tx(0, 1, 0)},
		}}
		_, err := Run(s, Options{Slots: 2, Packets: 1, Inject: in})
		if err == nil {
			t.Fatalf("%s: no error", name)
		}
		if !strings.Contains(err.Error(), "at least 1") {
			t.Errorf("%s: error %q does not explain the constraint", name, err)
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
		Slots: 8, Packets: 4, Inject: lossyLinks{drop, lat},
		AllowIncomplete: true, SkipUnavailable: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Missing[2] != 1 {
		t.Errorf("dropped packet not missing: %v", res.Missing)
	}
}
