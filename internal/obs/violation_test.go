package obs_test

import (
	"testing"

	"streamcast/internal/core"
	"streamcast/internal/obs"
	"streamcast/internal/slotsim"
)

// TestViolationEventEndsStream: on a failing schedule the engine emits the
// event prefix up to the failure and then exactly one Violation event, the
// last of the stream.
func TestViolationEventEndsStream(t *testing.T) {
	// Two packets land on node 1 in the same slot: receive-capacity violation.
	var rec obs.Recorder
	_, err := slotsim.Run(&capViolator{}, slotsim.Options{Slots: 3, Packets: 2, Observer: &rec})
	if err == nil {
		t.Fatal("expected a violation")
	}
	if len(rec.Events) == 0 {
		t.Fatal("failing run produced no events")
	}
	for i, ev := range rec.Events {
		if last := i == len(rec.Events)-1; (ev.Kind == obs.KindViolation) != last {
			t.Errorf("event %d of %d is %v; want the violation last and only last", i, len(rec.Events), ev)
		}
	}
}

// capViolator schedules a receive-capacity violation in slot 1.
type capViolator struct{}

func (*capViolator) Name() string                             { return "violator" }
func (*capViolator) NumReceivers() int                        { return 3 }
func (*capViolator) SourceCapacity() int                      { return 2 }
func (*capViolator) Neighbors() map[core.NodeID][]core.NodeID { return nil }
func (*capViolator) Transmissions(t core.Slot) []core.Transmission {
	switch t {
	case 0:
		return []core.Transmission{{From: 0, To: 2, Packet: 0}}
	case 1:
		return []core.Transmission{
			{From: 0, To: 1, Packet: 0},
			{From: 2, To: 1, Packet: 0},
		}
	}
	return nil
}
