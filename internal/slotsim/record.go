package slotsim

import (
	"math"

	"streamcast/internal/core"
)

// Arrivals is the measurement window's arrival matrix, kept for a run whose
// Options.Arrivals pointed at it: when each node received each window packet.
// The run writes it in place; a second run handed the same Arrivals replaces
// its contents.
type Arrivals struct {
	packets core.Packet
	// store is packet-major with row stride stride (the run's node ids,
	// churn headroom included), encoded slot + 1 (0 = never arrived, so a
	// fresh or cleared record needs no fill pass): cell j·stride+id is window
	// packet j at node id. A reader that visits many nodes walks it a packet
	// row at a time.
	store  store
	stride int
}

// At returns the slot at the end of which node id received window packet j,
// or -1 if it never arrived. Node 0 is the source, which receives nothing.
func (a *Arrivals) At(id core.NodeID, j core.Packet) core.Slot {
	return a.store.at(int(j)*a.stride + int(id))
}

// Row returns node id's arrival slots over the whole window, indexed by
// packet (-1 = never arrived), as a fresh slice. It allocates; code that
// visits many nodes should call At.
func (a *Arrivals) Row(id core.NodeID) []core.Slot {
	out := make([]core.Slot, a.packets)
	a.store.column(int(id), a.stride, out)
	return out
}

// Hiccups counts the playback interruptions node id would suffer if it
// committed to starting playback at the given slot: packets that are
// missing entirely or arrive after their playback slot start+j.
func (a *Arrivals) Hiccups(id core.NodeID, start core.Slot) int {
	return a.store.hiccups(int(id), a.stride, int(a.packets), start)
}

// forget clears node id's row: the id's previous occupant left, and its
// arrivals are not the joining member's.
func (a *Arrivals) forget(id core.NodeID) {
	a.store.forget(int(id), a.stride, int(a.packets))
}

// size makes a the record of a run over ids 0..ids−1, a window of packets and
// a horizon of slots, with every cell unset. Cells handed in again at the same
// width keep their memory and are cleared; otherwise they are a fresh
// allocation, all zero already, whose pages no arrival reaches (the join
// headroom of a live-churn run) are never faulted in.
func (a *Arrivals) size(ids int, packets core.Packet, slots core.Slot) {
	a.packets, a.stride = packets, ids
	n := ids * int(packets)
	switch cellWidth(slots) {
	case 1:
		a.store = resized[uint8](a.store, n)
	case 2:
		a.store = resized[uint16](a.store, n)
	default:
		a.store = resized[uint32](a.store, n)
	}
}

// resized is s with n cells of type T, cleared: s itself when it is of that
// width and has the room, else a fresh store.
func resized[T cell](s store, n int) store {
	if c, ok := s.(cells[T]); ok && cap(c) >= n {
		c = c[:n]
		clear(c)
		return c
	}
	return make(cells[T], n)
}

// cellWidth is the bytes of an arrival cell on a horizon of slots: the
// narrowest of 1, 2 and 4 that holds the largest cell a run writes. That is
// slots itself, an arrival at the end of the last slot: the engine executes
// no slot past the horizon, and a certified run extrapolates only arrivals
// inside it (period.go). core.MaxArrivalCells keeps every horizon a run
// accepts far below 2^32.
func cellWidth(slots core.Slot) int {
	switch {
	case slots <= math.MaxUint8:
		return 1
	case slots <= math.MaxUint16:
		return 2
	}
	return 4
}

// cell is the unsigned integer an arrival cell is stored in.
type cell interface{ uint8 | uint16 | uint32 }

// cells is a record's store at one width. Its methods are the record's
// kernels, one instance per width: a caller picks the width once per call,
// through the store interface, and the loop inside runs on T alone.
type cells[T cell] []T

// store is an Arrivals record's cells at the width its run's horizon needs
// (cellWidth): a cells[uint8], cells[uint16] or cells[uint32]. Besides the
// kernels here, tally folds a block of ids for the report's buffer series
// (report.go), walk is PlaybackSLO's pass (slo.go), and extend completes a
// certified run (period.go).
type store interface {
	at(i int) core.Slot
	column(id, stride int, out []core.Slot)
	hiccups(id, stride, packets int, start core.Slot) int
	forget(id, stride, packets int)
	note(t core.Slot, stride int, window core.Packet, arrivals []core.Transmission)
	extend(from, to, stride int, P core.Slot)
	tally(lo, hi, stride, packets, slots int, count []int32) int
	walk(stride, packets int, owing []owed, ids, start, run []int32) (hiccups, gaps, stall, reach int)
}

// at is cell i's arrival slot, -1 if unset.
func (c cells[T]) at(i int) core.Slot {
	return core.Slot(c[i]) - 1
}

// column writes node id's arrival slots into out, one per window packet.
func (c cells[T]) column(id, stride int, out []core.Slot) {
	for j := range out {
		out[j] = core.Slot(c[j*stride+id]) - 1
	}
}

// hiccups counts node id's window packets that are unset or arrived after
// their playback slot start + j.
func (c cells[T]) hiccups(id, stride, packets int, start core.Slot) int {
	n := 0
	for j := 0; j < packets; j++ {
		if v := c[j*stride+id]; v == 0 || core.Slot(v)-1 > start+core.Slot(j) {
			n++
		}
	}
	return n
}

// forget unsets node id's cells.
func (c cells[T]) forget(id, stride, packets int) {
	for j := 0; j < packets; j++ {
		c[j*stride+id] = 0
	}
}

// note books the window arrivals deliver applied at the end of slot t: each
// one whose cell is still unset, since a set cell is an earlier arrival of
// the same packet, of which this one is a duplicate. The source's cells stay
// unset: it discards what it is sent.
func (c cells[T]) note(t core.Slot, stride int, window core.Packet, arrivals []core.Transmission) {
	v := T(t + 1)
	for _, tx := range arrivals {
		if tx.Packet < window && tx.To != core.SourceID {
			if i := int(tx.Packet)*stride + int(tx.To); c[i] == 0 {
				c[i] = v
			}
		}
	}
}
