package obs_test

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"streamcast/internal/core"
	"streamcast/internal/obs"
	"streamcast/internal/slotsim"
)

// TestViolationEventEndsStream pins the slot that stops a run, and a
// duplicate that does not (a churned run's): each row's whole Recorder stream must equal the
// stream written as a JSONL trace of the same run and read back, and both
// must equal the row's stream. A run the engine stops carries what happened
// before it stopped and no end line: a violation comes last, and an Inject
// that makes a link shorter than one slot ends the stream after the last
// transmission routed before the failing one, with no rx line.
func TestViolationEventEndsStream(t *testing.T) {
	ev := func(k obs.Kind, slot core.Slot, from, to core.NodeID, p core.Packet) obs.Event {
		return obs.Event{Kind: k, Slot: slot, Tx: core.Transmission{From: from, To: to, Packet: p}}
	}
	open := func(slot core.Slot, n int) obs.Event {
		return obs.Event{Kind: obs.KindSlotStart, Slot: slot, Scheduled: n}
	}
	end := func(slot core.Slot) obs.Event { return obs.Event{Kind: obs.KindSlotEnd, Slot: slot} }
	violation := func(slot core.Slot, note string, from, to core.NodeID, p core.Packet) obs.Event {
		e := ev(obs.KindViolation, slot, from, to, p)
		e.Note = note
		return e
	}
	dup := ev(obs.KindDeliver, 1, 0, 1, 0)
	dup.Dup = true
	// slot 0 of every row: the source sends packet 0 to node 1.
	first := []obs.Event{open(0, 1), ev(obs.KindTransmit, 0, 0, 1, 0), ev(obs.KindDeliver, 0, 0, 1, 0), end(0)}
	rows := []struct {
		name   string
		slot1  []core.Transmission
		opt    slotsim.Options
		failed bool
		want   []obs.Event
	}{
		{
			name:   "send capacity",
			slot1:  []core.Transmission{{From: 0, To: 1, Packet: 1}, {From: 0, To: 2, Packet: 1}, {From: 0, To: 3, Packet: 1}},
			failed: true,
			want:   []obs.Event{open(1, 3), violation(1, "send capacity exceeded", 0, 3, 1)},
		},
		{
			name:   "receive capacity after one delivery",
			slot1:  []core.Transmission{{From: 0, To: 2, Packet: 0}, {From: 0, To: 3, Packet: 0}, {From: 1, To: 3, Packet: 0}},
			failed: true,
			want: []obs.Event{
				open(1, 3), ev(obs.KindTransmit, 1, 0, 2, 0), ev(obs.KindTransmit, 1, 0, 3, 0), ev(obs.KindTransmit, 1, 1, 3, 0),
				ev(obs.KindDeliver, 1, 0, 2, 0), ev(obs.KindDeliver, 1, 0, 3, 0),
				violation(1, "receive capacity exceeded", 1, 3, 0),
			},
		},
		{
			name:  "duplicate allowed",
			slot1: []core.Transmission{{From: 0, To: 1, Packet: 0}, {From: 1, To: 2, Packet: 0}},
			opt:   slotsim.Options{Churn: noChurn{}, AllowIncomplete: true, SkipUnavailable: true},
			want: []obs.Event{
				open(1, 2), ev(obs.KindTransmit, 1, 0, 1, 0), ev(obs.KindTransmit, 1, 1, 2, 0),
				dup, ev(obs.KindDeliver, 1, 1, 2, 0), end(1),
				open(2, 0), end(2),
			},
		},
		{
			name:   "inject delay below zero",
			slot1:  []core.Transmission{{From: 0, To: 2, Packet: 0}, {From: 1, To: 3, Packet: 0}, {From: 0, To: 1, Packet: 1}},
			opt:    slotsim.Options{Inject: scriptedInject{}, AllowIncomplete: true},
			failed: true,
			want:   []obs.Event{open(1, 3), ev(obs.KindDrop, 1, 0, 2, 0), ev(obs.KindTransmit, 1, 1, 3, 0)},
		},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			var rec obs.Recorder
			var trace strings.Builder
			j := obs.NewJSONLWriter(&trace)
			opt := row.opt
			opt.Slots, opt.Packets, opt.Observer = 3, 2, obs.Combine(&rec, j)
			_, err := slotsim.Run(&scripted{slot1: row.slot1}, opt)
			if (err != nil) != row.failed {
				t.Fatalf("run error %v, want failure %v", err, row.failed)
			}
			if err := j.Flush(); err != nil {
				t.Fatal(err)
			}
			read, err := obs.ReadEvents(strings.NewReader(trace.String()))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(read, rec.Events) {
				t.Errorf("trace read back:\n got %v\nwant the recorded %v", read, rec.Events)
			}
			if want := append(append([]obs.Event(nil), first...), row.want...); !reflect.DeepEqual(rec.Events, want) {
				t.Errorf("recorded stream:\n got %v\nwant %v", rec.Events, want)
			}
		})
	}
}

// scripted sends packet 0 to node 1 in slot 0, then its slot1 list, then
// nothing.
type scripted struct{ slot1 []core.Transmission }

func (*scripted) Name() string                                   { return "scripted" }
func (*scripted) NumReceivers() int                              { return 3 }
func (*scripted) SourceCapacity() int                            { return 2 }
func (*scripted) Neighbors() map[core.NodeID][]core.NodeID       { return nil }
func (*scripted) EachNeighbors(func(core.NodeID, []core.NodeID)) {}
func (s *scripted) Transmissions(t core.Slot) []core.Transmission {
	switch t {
	case 0:
		return []core.Transmission{{From: 0, To: 1, Packet: 0}}
	case 1:
		return s.slot1
	}
	return nil
}

// Members and Apply make scripted a core.DynamicScheme whose membership never
// changes, so a row can run it under a churn source.
func (*scripted) Members() []core.MemberInfo { return nil }
func (*scripted) Apply(core.Slot, core.TopologyOp) (core.ChurnStats, error) {
	return core.ChurnStats{}, errors.New("scripted: fixed membership")
}

// noChurn is a churn source that applies no op: a run under it is a churned
// run, which tolerates a duplicate.
type noChurn struct{}

func (noChurn) MaxNodes() int { return 0 }
func (noChurn) Step(core.Slot, core.DynamicScheme) ([]core.ChurnStats, error) {
	return nil, nil
}

// scriptedInject loses what the source sends to node 2 and gives whatever is
// sent to node 1 in slot 1 a link shorter than one slot.
type scriptedInject struct{}

func (scriptedInject) DropTx(tx core.Transmission, _ core.Slot) bool {
	return tx.From == core.SourceID && tx.To == 2
}

func (scriptedInject) DelayTx(tx core.Transmission, t core.Slot) core.Slot {
	if t == 1 && tx.To == 1 {
		return -1
	}
	return 0
}
