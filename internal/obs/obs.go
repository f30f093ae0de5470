package obs

import (
	"fmt"

	"streamcast/internal/core"
)

// Observer receives one call per executed slot from the slotsim engine, in
// slot order and from a single goroutine, so implementations need no
// locking. An implementation may still hand its work to a goroutine of its
// own: the JSONLWriter writes its io.Writer from its encoder goroutine, from
// the first batch handoff until Flush returns.
type Observer interface {
	// Slot reports slot v.T after its deliveries. The view and its slices
	// belong to the engine and are valid only during the call.
	Slot(v *SlotView)
}

// Violation is the model constraint that stopped a run and the transmission
// that broke it.
type Violation struct {
	Kind string
	Tx   core.Transmission
}

// SlotView is what one slot did. Read in order, it is the slot's event
// stream: the slot opens with Scheduled, then each of Sent is a transmit or,
// when listed in Lost, a drop; then each of Arrivals is a delivery, a
// duplicate when listed in Dups; then the violation, if any; then, if Ended,
// the slot's end. A transmission over a link with latency L is in Sent in its
// send slot and in Arrivals in slot sendSlot+L−1.
//
// The slot that stops a run has Ended false and holds only what happened
// before it stopped: a send-side violation has no Sent, a receive-side one
// cuts Arrivals before the failing arrival, and an Inject that shortens a
// link below one slot cuts Sent before the failing transmission and has no
// Arrivals.
type SlotView struct {
	T core.Slot
	// Scheduled is the number of transmissions the scheme emitted for the
	// slot, before SkipUnavailable filtering.
	Scheduled int
	// Sent holds the validated transmissions, in schedule order.
	Sent []core.Transmission
	// Lost holds the ascending indexes into Sent of the transmissions the
	// run's in-flight hook lost (slotsim.Options.Inject): they consumed send
	// capacity but never arrive.
	Lost []int
	// Arrivals holds the transmissions arriving at the end of the slot, in
	// arrival order.
	Arrivals []core.Transmission
	// Dups holds the ascending indexes into Arrivals of the packets their
	// receiver already held, which the engine discarded
	// (slotsim.Options.AllowDuplicates).
	Dups []int
	// Violation is the broken model constraint that stops the run, or nil.
	Violation *Violation
	// Ended is set when the slot ran to completion.
	Ended bool
}

// AppendEvents appends the view's event stream to evs and returns it.
func (v *SlotView) AppendEvents(evs []Event) []Event {
	evs = append(evs, Event{Kind: KindSlotStart, Slot: v.T, Scheduled: v.Scheduled})
	lost := v.Lost
	for i, tx := range v.Sent {
		k := KindTransmit
		if len(lost) > 0 && lost[0] == i {
			k, lost = KindDrop, lost[1:]
		}
		evs = append(evs, Event{Kind: k, Slot: v.T, Tx: tx})
	}
	dups := v.Dups
	for i, tx := range v.Arrivals {
		dup := len(dups) > 0 && dups[0] == i
		if dup {
			dups = dups[1:]
		}
		evs = append(evs, Event{Kind: KindDeliver, Slot: v.T, Tx: tx, Dup: dup})
	}
	if v.Violation != nil {
		evs = append(evs, Event{Kind: KindViolation, Slot: v.T, Tx: v.Violation.Tx, Note: v.Violation.Kind})
	}
	if v.Ended {
		evs = append(evs, Event{Kind: KindSlotEnd, Slot: v.T})
	}
	return evs
}

// Kind enumerates recorded event types.
type Kind uint8

const (
	KindSlotStart Kind = iota
	KindTransmit
	KindDeliver
	KindDrop
	KindViolation
	KindSlotEnd
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindSlotStart:
		return "slot"
	case KindTransmit:
		return "tx"
	case KindDeliver:
		return "rx"
	case KindDrop:
		return "drop"
	case KindViolation:
		return "violation"
	case KindSlotEnd:
		return "end"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Event is one entry of a slot's event stream in a flat, comparable form.
type Event struct {
	Kind Kind
	Slot core.Slot
	// Tx is set for Transmit, Deliver, Drop and Violation events.
	Tx core.Transmission
	// Dup marks a Deliver of an already-held packet.
	Dup bool
	// Scheduled is the SlotStart schedule size.
	Scheduled int
	// Note is the Violation kind.
	Note string
}

// String renders the event compactly, e.g. "t3 rx 1->2:p4".
func (e Event) String() string {
	switch e.Kind {
	case KindSlotStart:
		return fmt.Sprintf("t%d slot n=%d", e.Slot, e.Scheduled)
	case KindSlotEnd:
		return fmt.Sprintf("t%d end", e.Slot)
	case KindViolation:
		return fmt.Sprintf("t%d violation %q %s", e.Slot, e.Note, e.Tx)
	case KindDeliver:
		if e.Dup {
			return fmt.Sprintf("t%d rx %s (dup)", e.Slot, e.Tx)
		}
		fallthrough
	default:
		return fmt.Sprintf("t%d %s %s", e.Slot, e.Kind, e.Tx)
	}
}

// Recorder is an Observer that appends every slot's event stream to Events.
// It is the reference consumer for equivalence tests (event-stream parity
// between replays) and the in-memory form of the JSONL trace.
type Recorder struct {
	Events []Event
}

// Slot implements Observer.
func (r *Recorder) Slot(v *SlotView) { r.Events = v.AppendEvents(r.Events) }

// SlotFunc adapts a function to Observer.
type SlotFunc func(v *SlotView)

// Slot implements Observer.
func (f SlotFunc) Slot(v *SlotView) { f(v) }

// multi fans each slot out to several observers in order.
type multi []Observer

// Combine merges observers into one, skipping nils. It returns nil when
// none remain (a run nothing observes) and the observer itself when exactly
// one remains.
func Combine(os ...Observer) Observer {
	kept := make(multi, 0, len(os))
	for _, o := range os {
		if o != nil {
			kept = append(kept, o)
		}
	}
	switch len(kept) {
	case 0:
		return nil
	case 1:
		return kept[0]
	default:
		return kept
	}
}

// Slot implements Observer.
func (m multi) Slot(v *SlotView) {
	for _, o := range m {
		o.Slot(v)
	}
}
