package slotsim

import (
	"fmt"
	"math/bits"

	"streamcast/internal/core"
)

// The arrival ledger: what the engine remembers of each delivery, and how
// finish reads it back (PERFORMANCE.md §7). Every run keeps one presence bit
// per (tracked packet, node) — all that availability and duplicate checks ask.
// deliver (engine.go) writes them, touching each presence word once and
// marking a packet's row dirty only when the packet changes (PERFORMANCE.md §2).
// What else a window delivery leaves depends on who reads the run afterwards:
//
//   - A cell run keeps the window's arrival slots, one int32 per node per window
//     packet, because something reads them: a caller that asked for
//     Options.Arrivals, or a custom Options.RecvCap, under which a node may take
//     several packets in one slot and the buffer peak needs the full scan.
//   - Every other run — a cell-free run — keeps one bit per node per slot in
//     which a window packet arrived. A receiver then takes at most one packet
//     per slot, so its window count A(t) grows by at most one per slot, and
//     after its playback start s occupancy A(t) − (t − s) never exceeds A(s):
//     the peak buffer is the number of window packets that arrived in slots
//     0..s.

// arrivalBytes is the most a run of n+1 node ids tracking maxPkt packet rows
// allocates for its ledger: the presence bits, plus int32 cells for cellRows
// window rows on a cell run or, on a cell-free run, slot bits for as many as
// its slots rows. It is computed in float64 so that a hostile horizon cannot
// overflow it.
func arrivalBytes(n int, maxPkt, cellRows core.Packet, slots core.Slot) float64 {
	rowBytes := float64((n+64)/64) * 8
	if cellRows > 0 {
		return rowBytes*float64(maxPkt) + 4*float64(n+1)*float64(cellRows)
	}
	return rowBytes * (float64(maxPkt) + float64(slots))
}

// resetLedger sizes the Runner's ledger for a run over ids 0..n tracking
// maxPkt packets, keeping int32 cells for the first cellRows of them (0 on a
// cell-free run). The previous run's writes are undone against its layout
// first: the packet rows its dirty bitmap marks are cleared in the presence
// bits and, below its cell rows, in the cells, and on a cell-free run the slot
// rows up to its last window arrival. A buffer that must grow is freshly
// allocated instead, and therefore all zero, and is never cleared here: pages
// the run does not touch stay unfaulted. Cells the previous run handed to its
// caller (Options.Arrivals) are no longer the Runner's: sc.cells is nil, and
// a cell run allocates its own.
func (sc *scratch) resetLedger(n int, maxPkt, cellRows core.Packet) {
	words := (n + 64) / 64
	haveLen, cellLen := int(maxPkt)*words, int(cellRows)*(n+1)
	reuseHave, reuseCells := cap(sc.have) >= haveLen, sc.cells != nil && cap(sc.cells) >= cellLen
	for w, set := range sc.dirtyRows {
		if set == 0 {
			continue
		}
		sc.dirtyRows[w] = 0
		for set != 0 {
			p := w<<6 + bits.TrailingZeros64(set)
			set &= set - 1
			if reuseHave {
				clear(sc.have[p*sc.words : (p+1)*sc.words])
			}
			if reuseCells && p < sc.cellRows {
				clear(sc.cells[p*sc.stride : (p+1)*sc.stride])
			}
		}
	}
	if sc.cellRows == 0 {
		clear(sc.slots[:(int(sc.maxArr)+1)*sc.words])
	}
	sc.have = grownU64s(sc.have, haveLen)
	sc.cells = grownInt32s(sc.cells, cellLen)
	sc.dirtyRows = grownU64s(sc.dirtyRows, (int(maxPkt)+63)/64)
	sc.words, sc.stride, sc.cellRows = words, n+1, int(cellRows)
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

// growSlots makes the slot bits of a cell-free run cover rows 0..t. Rows
// start at 64 and double, up to the horizon, so a run regrows a handful of
// times at most; the rows written so far are copied into the fresh array and
// the rest of it is never touched.
func (e *engine) growSlots(t core.Slot) {
	rows := min(max(2*len(e.slots)/e.words, int(t)+1, 64), int(e.opt.Slots))
	if rows*e.words <= cap(e.slots) {
		e.slots = e.slots[:rows*e.words]
	} else {
		grown := make([]uint64, rows*e.words)
		copy(grown, e.slots)
		e.slots = grown
	}
	e.sc.slots = e.slots
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
	if e.cells != nil {
		for p := 0; p < int(e.opt.Packets); p++ {
			e.cells[p*e.stride+int(id)] = unset32
		}
	} else {
		for t := 0; t <= int(e.sc.maxArr); t++ {
			e.slots[t*e.words+w] &= keep
		}
	}
	lag := noLag
	e.cursor[id] = uint64(uint32(lag)) << 32
	e.sc.ring.purgeTo(id)
}

// finish computes the Result after the last slot. The playback cursors
// maintained at delivery time supply StartDelay, Missing and SlotsUsed
// directly; MaxBuffer comes from the slot bits on a cell-free run and from a
// scan of the window cells on a cell run.
func (e *engine) finish() (*Result, error) {
	r := &Result{
		N:          e.n,
		Packets:    e.opt.Packets,
		StartDelay: make([]core.Slot, e.n+1),
		MaxBuffer:  make([]int, e.n+1),
		Missing:    make([]int, e.n+1),
	}
	if m := core.Slot(e.sc.maxArr); m > r.SlotsUsed {
		r.SlotsUsed = m
	}
	var err error
	if e.cells != nil {
		err = e.finishCells(r)
	} else {
		err = e.finishBits(r)
	}
	if err != nil {
		return nil, err
	}
	r.SlotsUsed++
	return r, nil
}

// finishBits summarises a cell-free run: each receiver's peak buffer is the
// count of its window arrivals in slots 0..StartDelay (see the top of this
// file).
func (e *engine) finishBits(r *Result) error {
	np := int(e.opt.Packets)
	last := core.Slot(e.sc.maxArr)
	for id := 1; id <= e.n; id++ {
		cur := e.cursor[id]
		if got := int(uint32(cur)); got < np {
			if !e.opt.AllowIncomplete {
				return e.neverReceived(id)
			}
			r.Missing[id] = np - got
			if got == 0 {
				continue
			}
		}
		s := core.Slot(int32(uint32(cur >> 32)))
		r.StartDelay[id] = s
		r.MaxBuffer[id] = e.arrivedBy(core.NodeID(id), min(s, last))
	}
	return nil
}

// arrivedBy counts node id's window arrivals in slots 0..s.
func (e *engine) arrivedBy(id core.NodeID, s core.Slot) int {
	w, bit := int(id)>>6, uint64(1)<<(uint(id)&63)
	n := 0
	for i := w; i <= int(s)*e.words+w; i += e.words {
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

// finishTile is how many node ids finishCells gathers at a time. A tile's rows
// (finishTile·Packets int32s, 150 KB at 600 packets) should stay in L2 while
// every window packet row contributes its finishTile-wide run to them; a run of
// 64 int32s is 256 contiguous bytes of the packet-major source, enough to use
// the cache lines it fetches. Measured on the dense benchmark shape, 16–64 are
// within noise of each other and 128 and up are a fifth slower.
const finishTile = 64

// finishCells summarises a cell run, and hands its cells to Options.Arrivals
// when the caller asked for them.
func (e *engine) finishCells(r *Result) error {
	np := int(e.opt.Packets)
	// Indexable by every arrival slot: none is later than maxArr.
	counts := grownInts(e.sc.counts, int(e.sc.maxArr)+1)
	e.sc.counts = counts
	for i := range counts {
		counts[i] = 0
	}
	// The cells are packet-major and the occupancy scan walks one node's
	// packets, so the window is gathered a tile of ids at a time into one
	// reused node-major buffer: cell by cell would write with a stride of one
	// output row, a cache miss per cell, where each packet row's run for a
	// tile lands in rows still cached from the previous packet, and the tile's
	// metrics are computed before those rows are evicted.
	tile := grownInt32s(e.sc.tile, finishTile*np)
	e.sc.tile = tile
	for lo := 0; lo <= e.n; lo += finishTile {
		hi := min(lo+finishTile, e.n+1)
		first := max(lo, 1)
		if receivedNone(e.cursor[lo:hi]) {
			// No id of the tile received a window packet — the join headroom of
			// a live-churn run is thousands of such ids — so its metrics need no
			// scan.
			if !e.opt.AllowIncomplete {
				return e.neverReceived(first)
			}
			for id := first; id < hi; id++ {
				r.Missing[id] = np
			}
			continue
		}
		for j := 0; j < np; j++ {
			o := j
			for _, a := range e.cells[j*e.stride+lo : j*e.stride+hi] {
				tile[o] = a
				o += np
			}
		}
		for id := first; id < hi; id++ {
			row := tile[(id-lo)*np : (id-lo+1)*np]
			cur := e.cursor[id]
			got := int(uint32(cur))
			if got < np {
				if !e.opt.AllowIncomplete {
					return e.neverReceived(id)
				}
				r.Missing[id] = np - got
			}
			if worst := int32(uint32(cur >> 32)); worst != noLag {
				r.StartDelay[id] = core.Slot(worst)
			}
			r.MaxBuffer[id] = maxBuffer(row, r.StartDelay[id], counts)
		}
	}
	if e.opt.Arrivals != nil {
		// The caller takes the cells as they are, packet-major; the Runner
		// forgets them, so no later run clears or reuses what the caller holds.
		*e.opt.Arrivals = Arrivals{packets: e.opt.Packets, cells: e.cells[:len(e.cells):len(e.cells)], stride: e.stride}
		e.sc.cells = nil
	}
	return nil
}

// receivedNone reports whether no id of a run of playback cursors received a
// window packet: every received-count half is zero.
func receivedNone(cursors []uint64) bool {
	for _, cur := range cursors {
		if uint32(cur) != 0 {
			return false
		}
	}
	return true
}

// maxBuffer computes the peak buffer occupancy for one node: packet j
// occupies the buffer from the end of its arrival slot through the end of
// slot start+j (its playback slot), inclusive; a packet that arrives in its
// own playback slot is counted exactly once. Occupancy is sampled at the
// end of every slot, so a packet played during slot t still counts at the
// end of t; this matches the paper's "store 2 packets" accounting for the
// hypercube scheme (one being consumed plus one being disseminated).
//
// arrival is one node's window in the packed encoding (slot + 1; 0 = never
// arrived). counts is a caller-owned scratch slice, all zero on entry and
// indexable by every arrival slot; maxBuffer re-zeroes each entry it touches,
// so the slice is all zero again on return and reusable for the next node.
func maxBuffer(arrival []int32, start core.Slot, counts []int) int {
	var end int32 // latest arrival slot + 1
	for _, a := range arrival {
		if a == unset32 {
			continue
		}
		counts[a-1]++
		if a > end {
			end = a
		}
	}
	peak, have := 0, 0
	for t := core.Slot(0); t < core.Slot(end); t++ {
		have += counts[t]
		counts[t] = 0
		// Packets fully played (playback slot strictly before t) are gone.
		played := int(t - start)
		if played < 0 {
			played = 0
		}
		if played > len(arrival) {
			played = len(arrival)
		}
		if occ := have - played; occ > peak {
			peak = occ
		}
	}
	return peak
}
