package slotsim

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"

	"streamcast/internal/core"
)

// The arrival ledger: what the engine remembers of each delivery, and how
// finish reads it back (PERFORMANCE.md §7). There is one layout for every run.
// deliver (engine.go) is its one writer:
//
//   - A presence bit per (tracked packet, node) — all that availability and
//     duplicate checks ask. deliver touches each presence word once and marks a
//     packet's row dirty only when the packet changes (PERFORMANCE.md §2).
//   - A slot bit per (slot, node), set when a window packet reached the node at
//     the end of that slot.
//   - An overflow entry (t, id) for each further window packet node id took in
//     a slot t whose bit was already set. Only a custom Options.RecvCap lets a
//     node take two packets in one slot, so every other run keeps none.
//
// finish reads each receiver's peak buffer off its slot bits and overflow
// entries. Let A(t) count the node's window packets by the end of slot t and s
// be its playback start. Occupancy is A(t) for t ≤ s and A(t) − min(t − s,
// Packets) after it. Where A grows by at most one per slot, occupancy after s
// never rises, so between overflow slots it can only fall: the peak is A(s),
// or, larger, the occupancy at one of the node's overflow slots past s.
//
// The arrival slots themselves are a record kept only for a caller that asks
// (Options.Arrivals): deliver writes each window arrival into it beside the
// bits. Nothing the engine computes reads it.

// overflow is a window arrival at node id in a slot t in which the node had
// already taken one.
type overflow struct{ t, id int32 }

// arrivalBytes is the most a run of n+1 node ids tracking maxPkt packet rows
// over a horizon of slots allocates for its ledger — the presence bits and as
// many slot rows as slots — plus 4·(n+1)·kept bytes of a record of kept window
// packets. It is computed in float64 so that a hostile horizon cannot overflow
// it.
func arrivalBytes(n int, maxPkt core.Packet, slots core.Slot, kept core.Packet) float64 {
	rowBytes := float64((n+64)/64) * 8
	return rowBytes*(float64(maxPkt)+float64(slots)) + 4*float64(n+1)*float64(kept)
}

// resetLedger sizes the Runner's ledger for a run over ids 0..n tracking
// maxPkt packets over a horizon of slots, one slot row per slot. The previous
// run's writes are undone against its layout first: the packet rows its dirty
// bitmap marks are cleared in the presence bits, and the slot rows up to its
// last window arrival. A buffer that must grow is freshly allocated instead,
// and therefore all zero, and is never cleared here: where the allocator maps
// fresh pages for it, pages the run does not touch — the slot rows past its
// last window arrival among them — stay unfaulted.
func (sc *scratch) resetLedger(n int, maxPkt core.Packet, slots core.Slot) {
	words := (n + 64) / 64
	haveLen := int(maxPkt) * words
	reuse := cap(sc.have) >= haveLen
	for w, set := range sc.dirtyRows {
		if set == 0 {
			continue
		}
		sc.dirtyRows[w] = 0
		for set != 0 {
			p := w<<6 + bits.TrailingZeros64(set)
			set &= set - 1
			if reuse {
				clear(sc.have[p*sc.words : (p+1)*sc.words])
			}
		}
	}
	clear(sc.slots[:(int(sc.maxArr)+1)*sc.words])
	sc.have = grownU64s(sc.have, haveLen)
	sc.dirtyRows = grownU64s(sc.dirtyRows, (int(maxPkt)+63)/64)
	sc.slots = grownU64s(sc.slots, int(slots)*words)
	sc.words = words
	sc.over = sc.over[:0]
}

// has reports whether node id has received packet p (p < maxPkt).
func (e *engine) has(id core.NodeID, p core.Packet) bool {
	return e.have[int(p)*e.words+int(id)>>6]&(1<<(uint(id)&63)) != 0
}

// holds reports whether the node can transmit packet p during slot t.
func (e *engine) holds(id core.NodeID, p core.Packet, t core.Slot) bool {
	if p < 0 {
		return false
	}
	if id == core.SourceID {
		if e.opt.Mode == core.Live {
			return core.Slot(int(p)) <= t
		}
		return true
	}
	// A packet is forwardable from the slot after its arrival, so holding it
	// at t means arrival < t. Any recorded arrival already satisfies that:
	// deliver records a packet only at the end of its slot, after that slot's
	// sends were validated, and slots run in increasing order. Recorded is
	// enough.
	return p < e.maxPkt && e.has(id, p)
}

// resetNode wipes the engine state of one node id so it can be reassigned to
// a joining member: the member ids of the multi-tree family recycle through
// dummy revival, and the new occupant must not inherit the previous
// occupant's arrivals (it would otherwise appear to hold — and forward —
// packets it never received). In-flight transmissions addressed to the id
// are purged for the same reason.
func (e *engine) resetNode(id core.NodeID) {
	w, keep := int(id)>>6, ^(uint64(1) << (uint(id) & 63))
	for p := 0; p < int(e.maxPkt); p++ {
		e.have[p*e.words+w] &= keep
	}
	for t := 0; t <= int(e.sc.maxArr); t++ {
		e.slots[t*e.words+w] &= keep
	}
	e.sc.over = slices.DeleteFunc(e.sc.over, func(o overflow) bool { return o.id == int32(id) })
	if a := e.arrivals; a != nil {
		a.forget(id)
	}
	lag := noLag
	e.cursor[id] = uint64(uint32(lag)) << 32
	e.sc.ring.purgeTo(id)
}

// finish computes the Result after the last slot. The playback cursors
// maintained at delivery time supply StartDelay, Missing and SlotsUsed
// directly; MaxBuffer comes from the slot bits and overflow entries (see the
// top of this file). A certified run (period.go) stopped with part of the
// window still to come: every node completes it, and SlotsUsed is the
// window's last arrival the certificate extrapolated. A live-churn run's
// state spans the churn ceiling, but its Result covers only the ids the
// scheme had allocated by the end of the run: no id past them was ever a
// member.
func (e *engine) finish() (*Result, error) {
	n := e.n
	if e.dyn != nil {
		n = e.dyn.NumReceivers()
	}
	r := &Result{
		N:          n,
		Packets:    e.opt.Packets,
		StartDelay: make([]core.Slot, n+1),
		MaxBuffer:  make([]int, n+1),
		Missing:    make([]int, n+1),
	}
	if m := core.Slot(e.sc.maxArr); m > r.SlotsUsed {
		r.SlotsUsed = m
	}
	cert := &e.sc.cert
	if cert.at >= 0 {
		r.SlotsUsed, r.CertSlot, r.CertPeriod = cert.last, cert.at, cert.P
	}
	np := int(e.opt.Packets)
	over := e.sc.over
	slices.SortFunc(over, func(a, b overflow) int { return cmp.Or(cmp.Compare(a.id, b.id), cmp.Compare(a.t, b.t)) })
	for id := 1; id <= n; id++ {
		// over holds the sorted entries of this id and the ids after it.
		k := 0
		for k < len(over) && over[k].id == int32(id) {
			k++
		}
		mine := over[:k]
		over = over[k:]
		cur := e.cursor[id]
		if got := int(uint32(cur)); got < np && cert.at < 0 {
			if !e.opt.AllowIncomplete {
				return nil, e.neverReceived(id)
			}
			r.Missing[id] = np - got
			if got == 0 {
				continue
			}
		}
		s := core.Slot(int32(uint32(cur >> 32)))
		r.StartDelay[id] = s
		r.MaxBuffer[id] = e.peak(core.NodeID(id), s, mine)
	}
	r.SlotsUsed++
	return r, nil
}

// peak is node id's peak buffer under playback from slot s, given its
// overflow entries in slot order: A(s), or the occupancy A(t) − min(t − s,
// Packets) at one of its overflow slots t > s, whichever is larger. A node
// without overflow entries is A(s) alone, a popcount of its slot bits.
func (e *engine) peak(id core.NodeID, s core.Slot, over []overflow) int {
	// The slot rows end at the last window arrival; nothing arrives after it.
	by := max(min(s, core.Slot(e.sc.maxArr)), -1)
	a := e.arrivedIn(id, 0, by)
	i := 0
	for ; i < len(over) && core.Slot(over[i].t) <= s; i++ {
		a++
	}
	peak := a
	for ; i < len(over); i++ {
		t := core.Slot(over[i].t)
		a += 1 + e.arrivedIn(id, by+1, t)
		by = t
		if i+1 == len(over) || over[i+1].t != over[i].t {
			peak = max(peak, a-min(int(t-s), int(e.opt.Packets)))
		}
	}
	return peak
}

// arrivedIn counts the slots lo..hi in which node id took a window packet:
// its slot bits over those rows (0 when hi < lo).
func (e *engine) arrivedIn(id core.NodeID, lo, hi core.Slot) int {
	w, bit := int(id)>>6, uint64(1)<<(uint(id)&63)
	n := 0
	for i := int(lo)*e.words + w; i <= int(hi)*e.words+w; i += e.words {
		if e.slots[i]&bit != 0 {
			n++
		}
	}
	return n
}

// neverReceived is the error of a complete-window run in which node id missed
// a window packet: it names the lowest one.
func (e *engine) neverReceived(id int) error {
	j := 0
	for j < int(e.opt.Packets)-1 && e.has(core.NodeID(id), core.Packet(j)) {
		j++
	}
	return fmt.Errorf("slotsim: node %d never received packet %d within %d slots", id, j, e.opt.Slots)
}
