package slotsim

import (
	"math/bits"
	"slices"

	"streamcast/internal/core"
)

// The period certificate. A direct run (no Observer, Inject or Churn) of a
// scheme that declares core.Periodic with warm and P > 0 tries, at every
// slot boundary c = warm − 1 + i·P with i ≥ 1, to prove that the rest of the
// run repeats the period it has just executed, and stops there if it can.
//
// The state. Between slots, a direct run's future depends on its presence
// bits alone: the capacity counters are per slot, nothing is in flight, the
// source holds packet p from slot p (live) or always, and the schedule from
// warm on is the declared one. Write the presence state at boundary c as its
// floor f (the lowest packet row not every receiver holds; every row below
// is full), its top H (the highest row anyone holds; every row above is
// empty) and its band, rows f..H. The certificate at c holds when, against
// the snapshot taken at c − P:
//
//   - the floor moved by exactly P and so did the top;
//   - rows f..H equal the snapshot's rows shifted by P packets;
//   - the period booked no overflow entry (a second window packet at a node
//     in one slot, which only a custom RecvCap allows).
//
// Why that proves the rest of the run, by induction over the slots after c.
// Let S_t be the presence state after slot t and write S_c = S_{c−P} + P
// (row p of S_c is row p − P of S_{c−P}, and rows below P are full). Slot
// c+1 runs Transmissions(c+1) = Transmissions(c+1−P) + P, since c+1−P ≥
// warm. Every check the engine makes of a transmission reads its From and To
// (the same), the slot's earlier transmissions (the same, in the same order)
// and either the source's holding of p + P at c+1 (the same verdict as p at
// c+1−P, in both modes) or a presence bit of row p + P in S_c (row p of
// S_{c−P}, since slot c+1−P validated p ≥ 0). So slot c+1 is valid, makes the
// same deliveries shifted by P, and leaves S_{c+1} = S_{c+1−P} + P; the same
// step then carries every later slot. Each delivery of a later slot is thus
// a delivery (t, p) of the certified period moved to (t + mP, p + mP), and:
//
//   - every receiver completes the window: the floor rises by P a period;
//   - StartDelay, the worst t − p, is final: shifted arrivals keep their lag;
//   - MaxBuffer is final: it is A(s), a node's window arrivals by its start
//     s, plus overflow entries after s, and s ≤ c (the worst lag is some
//     arrival's t − p ≤ c) while no later period books an overflow entry;
//   - SlotsUsed is 1 + the latest t + P·⌊(W−1−p)/P⌋ over the period's window
//     arrivals, the last shift of each that stays inside the window W, or
//     an arrival before the period if later.
//
// The engine tracks packets below maxPkt only, so the certificate also asks
// that every shifted delivery up to the window's last arrival stays below
// it, and that the last arrival falls inside the horizon. A state that does
// not repeat, an overflow entry, or a shift past either bound leaves the run
// uncertified: it goes on slot by slot, exactly as before.

// certifier is the certificate's state on the Runner's scratch, so a warmed
// run allocates nothing for it.
type certifier struct {
	P    core.Slot // the declared period; 0 = no certificate is tried
	next core.Slot // the boundary (after slot next) of the next snapshot or check
	open bool      // a snapshot is held and deliver reports lo and hi
	// The snapshot: its floor and top, its band rows floor..top (words
	// uint64s a row) and how many overflow entries had been booked.
	floor, top core.Packet
	band       []uint64
	over       int
	// Over the slots since the snapshot: the last slot a window arrival's
	// shifts reach, and the largest p − t of any delivery.
	end  core.Slot
	lead core.Packet
	// Set by deliver for the slot it ran: the lowest window packet that
	// arrived and the highest packet delivered to anyone.
	lo, hi core.Packet
	// at is the boundary slot the certificate held at (-1: none yet), and
	// last the window's last arrival slot it extrapolated.
	at, last core.Slot
}

// noPacket is hi's value before a slot's first delivery.
const noPacket core.Packet = -1

// startCertifier sets up the certificate for a run: P > 0 only for a direct
// run of a scheme that declares a period. A warm-up of 0 takes the first
// snapshot, of the empty state, before slot 0.
func (e *engine) startCertifier(s core.Scheme) {
	c := &e.sc.cert
	c.P, c.open, c.at = 0, false, -1
	p, ok := s.(core.Periodic)
	if !ok || !e.direct {
		return
	}
	if warm, P := p.Period(); P > 0 && warm >= 0 {
		c.P, c.next = P, warm-1
		e.period(-1)
	}
}

// period runs at the boundary after slot t of a run that tries a
// certificate. It folds the slot's deliveries into the open period, and at
// the period's end either certifies the run (true: the loop stops) or takes a
// new snapshot.
func (e *engine) period(t core.Slot) bool {
	c := &e.sc.cert
	if c.open {
		w := e.opt.Packets
		if c.lo < w {
			c.end = max(c.end, t+c.P*core.Slot((int(w)-1-int(c.lo))/int(c.P)))
		}
		if c.hi != noPacket {
			c.lead = max(c.lead, c.hi-core.Packet(int(t)))
		}
	}
	c.lo, c.hi = e.opt.Packets, noPacket
	if t != c.next {
		return false
	}
	floor, top := c.floor, c.top
	if !c.open {
		floor, top = 0, noPacket
	}
	for floor < e.maxPkt && e.rowFull(floor) {
		floor++
	}
	from := e.maxPkt - 1
	if c.open {
		from = min(from, core.Packet(int(t))+c.lead)
	}
	top = e.highestRow(from, top)
	band := e.have[int(floor)*e.words : int(top+1)*e.words]
	shift := core.Packet(int(c.P))
	if c.open && floor == c.floor+shift && top == c.top+shift &&
		len(e.sc.over) == c.over && slices.Equal(band, c.band) {
		last := max(core.Slot(e.sc.maxArr), c.end)
		if last < e.opt.Slots && core.Packet(int(last))+c.lead < e.maxPkt {
			c.at, c.last = t, last
			e.extendRecord(floor, c.P)
			return true
		}
		c.P, c.open = 0, false // the repeat runs past a bound: no certificate this run
		return false
	}
	c.floor, c.top, c.over = floor, top, len(e.sc.over)
	c.band = append(c.band[:0], band...)
	c.open, c.next = true, t+c.P
	c.end, c.lead = -1, noPacket
	return false
}

// rowFull reports whether every receiver 1..n holds packet p. The source's
// bit, bit 0 of the row's first word, is never set.
func (e *engine) rowFull(p core.Packet) bool {
	row := e.have[int(p)*e.words : int(p+1)*e.words]
	last := len(row) - 1
	for i, w := range row[:last] {
		want := ^uint64(0)
		if i == 0 {
			want &^= 1
		}
		if w != want {
			return false
		}
	}
	want := ^uint64(0) >> (63 - uint(e.n&63))
	if last == 0 {
		want &^= 1
	}
	return row[last] == want
}

// highestRow returns the highest packet row in (above, from] that deliver
// has written, or above if there is none. Rows are never unwritten during a
// direct run, so that is the highest row any node holds when from bounds it.
func (e *engine) highestRow(from, above core.Packet) core.Packet {
	for p := from; p > above; p = p&^63 - 1 {
		if w := e.dirtyRows[p>>6] & (^uint64(0) >> (63 - uint(p&63))); w != 0 {
			return max(p&^63+core.Packet(bits.Len64(w)-1), above)
		}
	}
	return above
}

// extendRecord completes a certified run's Arrivals record, when it keeps
// one: a window cell still unset at the certificate is the cell P packets
// earlier plus P slots, and rows below floor are already whole. Rows are
// filled in packet order, so the earlier cell is always set by then.
func (e *engine) extendRecord(floor core.Packet, P core.Slot) {
	a := e.arrivals
	if a == nil {
		return
	}
	for p := int(floor); p < int(a.packets); p++ {
		row := a.cells[p*a.stride : (p+1)*a.stride]
		prev := a.cells[(p-int(P))*a.stride:]
		for id := 1; id < len(row); id++ {
			if row[id] == unset32 {
				row[id] = prev[id] + int32(P)
			}
		}
	}
}
