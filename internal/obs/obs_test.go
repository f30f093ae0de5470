package obs

import (
	"reflect"
	"testing"

	"streamcast/internal/core"
)

func tx(from, to core.NodeID, p core.Packet) core.Transmission {
	return core.Transmission{From: from, To: to, Packet: p}
}

// replay drives an observer through a tiny two-slot run:
//
//	t0: S→1:p0 transmitted and delivered
//	t1: 1→2:p0 dropped; S→1:p1 delivered as a duplicate
func replay(o Observer) {
	o.Slot(&SlotView{T: 0, Scheduled: 1,
		Sent: []core.Transmission{tx(0, 1, 0)}, Arrivals: []core.Transmission{tx(0, 1, 0)}, Ended: true})
	o.Slot(&SlotView{T: 1, Scheduled: 2,
		Sent: []core.Transmission{tx(1, 2, 0), tx(0, 1, 1)}, Lost: []int{0},
		Arrivals: []core.Transmission{tx(0, 1, 1)}, Dups: []int{0}, Ended: true})
}

func TestRecorder(t *testing.T) {
	var r Recorder
	replay(&r)
	want := []Event{
		{Kind: KindSlotStart, Slot: 0, Scheduled: 1},
		{Kind: KindTransmit, Slot: 0, Tx: tx(0, 1, 0)},
		{Kind: KindDeliver, Slot: 0, Tx: tx(0, 1, 0)},
		{Kind: KindSlotEnd, Slot: 0},
		{Kind: KindSlotStart, Slot: 1, Scheduled: 2},
		{Kind: KindDrop, Slot: 1, Tx: tx(1, 2, 0)},
		{Kind: KindTransmit, Slot: 1, Tx: tx(0, 1, 1)},
		{Kind: KindDeliver, Slot: 1, Tx: tx(0, 1, 1), Dup: true},
		{Kind: KindSlotEnd, Slot: 1},
	}
	if !reflect.DeepEqual(r.Events, want) {
		t.Errorf("events:\n got %v\nwant %v", r.Events, want)
	}
	if views, ok := Views(want); !ok || len(views) != 2 {
		t.Errorf("Views grouped the stream into %d views (ok %v), want 2", len(views), ok)
	}
}

func TestSlotFuncAndCombine(t *testing.T) {
	var delivers int
	f := SlotFunc(func(v *SlotView) { delivers += len(v.Arrivals) })
	var r1, r2 Recorder
	combined := Combine(nil, &r1, f, nil, &r2)
	replay(combined)
	combined.Slot(&SlotView{T: 2, Violation: &Violation{Kind: "test", Tx: tx(1, 1, 0)}})
	if delivers != 2 {
		t.Errorf("SlotFunc saw %d delivers, want 2", delivers)
	}
	if !reflect.DeepEqual(r1.Events, r2.Events) {
		t.Error("fan-out observers saw different event streams")
	}
	if n := len(r1.Events); n != 11 {
		t.Errorf("recorder saw %d events, want 11", n)
	}

	if Combine(nil, nil) != nil {
		t.Error("Combine of nils should be nil")
	}
	var solo Recorder
	if got := Combine(nil, &solo); got != Observer(&solo) {
		t.Error("Combine with one observer should return it unwrapped")
	}
}

func TestKindAndEventStrings(t *testing.T) {
	cases := []struct {
		e    Event
		want string
	}{
		{Event{Kind: KindSlotStart, Slot: 3, Scheduled: 7}, "t3 slot n=7"},
		{Event{Kind: KindTransmit, Slot: 0, Tx: tx(0, 1, 2)}, "t0 tx " + tx(0, 1, 2).String()},
		{Event{Kind: KindDeliver, Slot: 4, Tx: tx(1, 2, 3), Dup: true}, "t4 rx " + tx(1, 2, 3).String() + " (dup)"},
		{Event{Kind: KindSlotEnd, Slot: 9}, "t9 end"},
	}
	for _, c := range cases {
		if got := c.e.String(); got != c.want {
			t.Errorf("%#v.String() = %q, want %q", c.e, got, c.want)
		}
	}
	names := map[Kind]string{
		KindSlotStart: "slot", KindTransmit: "tx", KindDeliver: "rx",
		KindDrop: "drop", KindViolation: "violation", KindSlotEnd: "end",
	}
	for k, want := range names {
		if k.String() != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, k.String(), want)
		}
	}
}
