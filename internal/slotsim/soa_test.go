package slotsim

import (
	"math"
	"strings"
	"testing"

	"streamcast/internal/core"
)

// TestTxRingOrdering: drain returns each slot's transmissions in enqueue
// order, and an empty slot drains nothing.
func TestTxRingOrdering(t *testing.T) {
	var r txRing
	r.enqueue(3, tx(0, 1, 0))
	r.enqueue(4, tx(0, 2, 0))
	r.enqueue(3, tx(1, 2, 1))
	if got := r.drain(2, nil); len(got) != 0 {
		t.Fatalf("slot 2 drained %d transmissions, want 0", len(got))
	}
	got := r.drain(3, nil)
	if len(got) != 2 || got[0] != tx(0, 1, 0) || got[1] != tx(1, 2, 1) {
		t.Fatalf("slot 3 drained %v, want enqueue order", got)
	}
	if got := r.drain(3, nil); len(got) != 0 {
		t.Fatal("slot 3 drained twice")
	}
	if got := r.drain(4, nil); len(got) != 1 || got[0] != tx(0, 2, 0) {
		t.Fatalf("slot 4 drained %v", got)
	}
}

// TestTxRingGrowth: two pending slots that collide in a small ring force a
// grow; nothing may be lost or reordered, including when a third colliding
// slot arrives after the resize.
func TestTxRingGrowth(t *testing.T) {
	var r txRing
	// Slots 1 and 9 collide mod 8 (the initial ring size); 17 collides with
	// both mod 8 and with 1 mod 16.
	slots := []core.Slot{1, 9, 17}
	for i, at := range slots {
		for j := 0; j < 3; j++ {
			r.enqueue(at, tx(core.NodeID(i), core.NodeID(j+1), core.Packet(j)))
		}
	}
	for i, at := range slots {
		got := r.drain(at, nil)
		if len(got) != 3 {
			t.Fatalf("slot %d drained %d transmissions, want 3", at, len(got))
		}
		for j, x := range got {
			want := tx(core.NodeID(i), core.NodeID(j+1), core.Packet(j))
			if x != want {
				t.Fatalf("slot %d entry %d: got %v, want %v", at, j, x, want)
			}
		}
	}
}

// TestTxRingReset: reset empties all buckets but keeps capacity, so a second
// run starting at unrelated slots sees a clean ring.
func TestTxRingReset(t *testing.T) {
	var r txRing
	r.enqueue(5, tx(0, 1, 0))
	r.enqueue(6, tx(0, 2, 1))
	r.reset()
	if got := r.drain(5, nil); len(got) != 0 {
		t.Fatalf("slot 5 survived reset: %v", got)
	}
	// Re-enqueue into the recycled bucket at the same residue.
	r.enqueue(5, tx(1, 2, 2))
	if got := r.drain(5, nil); len(got) != 1 || got[0] != tx(1, 2, 2) {
		t.Fatalf("recycled bucket drained %v", got)
	}
}

// TestArrivalMatrixSizedFromSnapshot: the engine sizes its packet rows from
// the run's options alone — slots × source capacity + capacity, or the window
// when that is wider, or the horizon in Live mode, where no node holds packet
// p before slot p.
func TestArrivalMatrixSizedFromSnapshot(t *testing.T) {
	s := &stubScheme{n: 2, srcCap: 3}
	for _, c := range []struct {
		name string
		opt  Options
		want core.Packet
	}{
		{"window", Options{Slots: 20, Packets: 70}, 70},
		{"uncompiled", Options{Slots: 20, Packets: 4}, 20*3 + 3},
		{"live", Options{Slots: 20, Packets: 4, Mode: core.Live}, 20},
	} {
		c.opt.AllowIncomplete = true
		e, err := NewRunner().runSlots(s, c.opt)
		if err != nil {
			t.Fatal(err)
		}
		if e.maxPkt != c.want {
			t.Errorf("%s: matrix tracks %d packets, want %d", c.name, e.maxPkt, c.want)
		}
	}
}

// TestLiveMatrixBoundedByHorizon: in Live mode no node can hold packet p
// before slot p, so the matrix needs no row at or past Slots, whatever the
// source capacity; the window still sets the floor, and the other modes, whose
// source may run ahead of the clock, keep slots·cap+cap.
func TestLiveMatrixBoundedByHorizon(t *testing.T) {
	s := &stubScheme{n: 2, srcCap: 3}
	for _, c := range []struct {
		name string
		opt  Options
		want core.Packet
	}{
		{"live", Options{Slots: 20, Packets: 4, Mode: core.Live}, 20},
		{"live, wide window", Options{Slots: 20, Packets: 30, Mode: core.Live}, 30},
		{"live pre-buffered", Options{Slots: 20, Packets: 4, Mode: core.LivePreBuffered}, 63},
		{"pre-recorded", Options{Slots: 20, Packets: 4}, 63},
	} {
		c.opt.AllowIncomplete = true
		e, err := NewRunner().runSlots(s, c.opt)
		if err != nil {
			t.Fatal(err)
		}
		if e.maxPkt != c.want {
			t.Errorf("%s: matrix tracks %d packets, want %d", c.name, e.maxPkt, c.want)
		}
	}
}

// TestArrivalMatrixCeiling: a run whose population × horizon asks for more
// than core.MaxArrivalCells is refused before anything is allocated, with the
// sizes in the message — including when the product does not fit an int — and
// the Runner is still good for a run that fits. That run keeps a record, which
// holds one cell per node id per window packet, and fills it.
func TestArrivalMatrixCeiling(t *testing.T) {
	r := NewRunner()
	big := &stubScheme{n: 200_000, srcCap: 3}
	for _, slots := range []core.Slot{800_112, math.MaxInt} {
		_, err := r.Run(big, Options{Slots: slots, Packets: 9, Mode: core.Live, AllowIncomplete: true, Arrivals: new(Arrivals)})
		if err == nil || !strings.Contains(err.Error(), "arrival matrix too large: N=200000 nodes") {
			t.Fatalf("Slots=%d: got %v, want the sized ceiling error", slots, err)
		}
	}
	// The figure counts a kept record at the width its horizon gets: at 200
	// slots, 1 byte a cell, 1.2 GB of the 1.4 GiB (4.7 GiB at 4 bytes).
	_, err := r.Run(&stubScheme{n: 6_000_000, srcCap: 3}, Options{Slots: 200, Packets: 200, Mode: core.Live, Arrivals: new(Arrivals)})
	const want = "slotsim: arrival matrix too large: N=6000000 nodes × 200 packet rows would allocate up to 1.4 GiB of arrival bits and cells, over the 1073741824-cell ceiling (core.MaxArrivalCells); shorten the horizon (200 slots) or the population"
	if err == nil || err.Error() != want {
		t.Errorf("got %v,\nwant %s", err, want)
	}
	if cap(r.sc.have) != 0 || cap(r.sc.slots) != 0 {
		t.Errorf("a refused run allocated %d presence words and %d slot words", cap(r.sc.have), cap(r.sc.slots))
	}
	kept := new(Arrivals)
	if _, err := r.Run(chainOfTwo(), Options{Slots: 6, Packets: 1, Arrivals: kept}); err != nil {
		t.Errorf("run after a refused one: %v", err)
	}
	if size, _ := storeBytes(kept); size != 3 || kept.At(1, 0) != 0 || kept.At(2, 0) != 1 {
		t.Errorf("record of %d bytes, node 1 at %d and node 2 at %d; want 3 one-byte cells, slots 0 and 1", size, kept.At(1, 0), kept.At(2, 0))
	}
}
