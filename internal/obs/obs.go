package obs

import (
	"fmt"

	"streamcast/internal/core"
)

// Observer receives per-slot callbacks from the slotsim engine. All
// callbacks for one run are delivered sequentially from a single goroutine,
// so implementations need no locking.
//
// Callback order within a slot t is fixed:
//
//	SlotStart(t, scheduled)
//	Transmit / Drop        — one per scheduled transmission, in schedule order
//	Deliver                — one per arrival at the end of t, in arrival order
//	SlotEnd(t)
//
// A transmission over a link with latency L produces its Transmit event in
// its send slot and its Deliver event in slot sendSlot+L−1. Violation fires
// at most once, as the final event of a failed run (the engine aborts).
type Observer interface {
	// SlotStart opens slot t; scheduled is the number of transmissions the
	// scheme emitted for the slot (before failure-injection filtering).
	SlotStart(t core.Slot, scheduled int)
	// Transmit reports a validated transmission leaving its sender in
	// slot t.
	Transmit(t core.Slot, tx core.Transmission)
	// Deliver reports a transmission arriving at the end of slot t.
	// duplicate is set when the receiver already held the packet and the
	// engine discarded the copy (Options.AllowDuplicates).
	Deliver(t core.Slot, tx core.Transmission, duplicate bool)
	// Drop reports a transmission lost in flight by failure injection
	// (Options.Drop): it consumed send capacity but never arrives.
	Drop(t core.Slot, tx core.Transmission)
	// Violation reports a broken model constraint; the run aborts after
	// this event.
	Violation(t core.Slot, kind string, tx core.Transmission)
	// SlotEnd closes slot t after all deliveries.
	SlotEnd(t core.Slot)
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

// Event is one recorded observer callback in a flat, comparable form.
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

// Recorder is an Observer that appends every callback to Events. It is the
// reference consumer for equivalence tests (event-stream parity between
// compiled and interpreted schedules, and between replays) and the
// in-memory form of the JSONL trace.
type Recorder struct {
	Events []Event
}

// SlotStart implements Observer.
func (r *Recorder) SlotStart(t core.Slot, scheduled int) {
	r.Events = append(r.Events, Event{Kind: KindSlotStart, Slot: t, Scheduled: scheduled})
}

// Transmit implements Observer.
func (r *Recorder) Transmit(t core.Slot, tx core.Transmission) {
	r.Events = append(r.Events, Event{Kind: KindTransmit, Slot: t, Tx: tx})
}

// Deliver implements Observer.
func (r *Recorder) Deliver(t core.Slot, tx core.Transmission, duplicate bool) {
	r.Events = append(r.Events, Event{Kind: KindDeliver, Slot: t, Tx: tx, Dup: duplicate})
}

// Drop implements Observer.
func (r *Recorder) Drop(t core.Slot, tx core.Transmission) {
	r.Events = append(r.Events, Event{Kind: KindDrop, Slot: t, Tx: tx})
}

// Violation implements Observer.
func (r *Recorder) Violation(t core.Slot, kind string, tx core.Transmission) {
	r.Events = append(r.Events, Event{Kind: KindViolation, Slot: t, Tx: tx, Note: kind})
}

// SlotEnd implements Observer.
func (r *Recorder) SlotEnd(t core.Slot) {
	r.Events = append(r.Events, Event{Kind: KindSlotEnd, Slot: t})
}

// Funcs adapts free functions to Observer; nil fields are skipped. Use it
// for one-off hooks without writing a full implementation.
type Funcs struct {
	OnSlotStart func(t core.Slot, scheduled int)
	OnTransmit  func(t core.Slot, tx core.Transmission)
	OnDeliver   func(t core.Slot, tx core.Transmission, duplicate bool)
	OnDrop      func(t core.Slot, tx core.Transmission)
	OnViolation func(t core.Slot, kind string, tx core.Transmission)
	OnSlotEnd   func(t core.Slot)
}

// SlotStart implements Observer.
func (f Funcs) SlotStart(t core.Slot, scheduled int) {
	if f.OnSlotStart != nil {
		f.OnSlotStart(t, scheduled)
	}
}

// Transmit implements Observer.
func (f Funcs) Transmit(t core.Slot, tx core.Transmission) {
	if f.OnTransmit != nil {
		f.OnTransmit(t, tx)
	}
}

// Deliver implements Observer.
func (f Funcs) Deliver(t core.Slot, tx core.Transmission, duplicate bool) {
	if f.OnDeliver != nil {
		f.OnDeliver(t, tx, duplicate)
	}
}

// Drop implements Observer.
func (f Funcs) Drop(t core.Slot, tx core.Transmission) {
	if f.OnDrop != nil {
		f.OnDrop(t, tx)
	}
}

// Violation implements Observer.
func (f Funcs) Violation(t core.Slot, kind string, tx core.Transmission) {
	if f.OnViolation != nil {
		f.OnViolation(t, kind, tx)
	}
}

// SlotEnd implements Observer.
func (f Funcs) SlotEnd(t core.Slot) {
	if f.OnSlotEnd != nil {
		f.OnSlotEnd(t)
	}
}

// multi fans callbacks out to several observers in order.
type multi []Observer

// Combine merges observers into one, skipping nils. It returns nil when
// none remain (preserving the engines' nil-observer fast path) and the
// observer itself when exactly one remains.
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

// SlotStart implements Observer.
func (m multi) SlotStart(t core.Slot, scheduled int) {
	for _, o := range m {
		o.SlotStart(t, scheduled)
	}
}

// Transmit implements Observer.
func (m multi) Transmit(t core.Slot, tx core.Transmission) {
	for _, o := range m {
		o.Transmit(t, tx)
	}
}

// Deliver implements Observer.
func (m multi) Deliver(t core.Slot, tx core.Transmission, duplicate bool) {
	for _, o := range m {
		o.Deliver(t, tx, duplicate)
	}
}

// Drop implements Observer.
func (m multi) Drop(t core.Slot, tx core.Transmission) {
	for _, o := range m {
		o.Drop(t, tx)
	}
}

// Violation implements Observer.
func (m multi) Violation(t core.Slot, kind string, tx core.Transmission) {
	for _, o := range m {
		o.Violation(t, kind, tx)
	}
}

// SlotEnd implements Observer.
func (m multi) SlotEnd(t core.Slot) {
	for _, o := range m {
		o.SlotEnd(t)
	}
}
