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

// periodicStub is a period-1 chain S→1→2 whose source capacity (3) overstates
// the one packet per slot it actually emits.
type periodicStub struct{ stubScheme }

func (periodicStub) Period() core.Slot      { return 1 }
func (periodicStub) SteadyState() core.Slot { return 1 }
func (periodicStub) Transmissions(t core.Slot) []core.Transmission {
	out := []core.Transmission{tx(0, 1, core.Packet(int(t)))}
	if t >= 1 {
		out = append(out, tx(1, 2, core.Packet(int(t)-1)))
	}
	return out
}

// TestArrivalMatrixSizedFromSnapshot: a compiled static schedule tells the
// engine how many packets it moves, and the matrix is sized to that instead
// of slots × source capacity; a schedule the Runner cannot compile, or a
// window wider than the bound, keeps the general sizing rules.
func TestArrivalMatrixSizedFromSnapshot(t *testing.T) {
	s := &periodicStub{stubScheme{n: 2, srcCap: 3}}
	e, err := NewRunner().runSlots(s, Options{Slots: 20, Packets: 4})
	if err != nil {
		t.Fatal(err)
	}
	if e.maxPkt != 20 {
		t.Errorf("compiled: matrix tracks %d packets, want the 20 the schedule emits", e.maxPkt)
	}
	if _, err := e.finish(); err != nil {
		t.Errorf("compiled: %v", err)
	}
	if e, err = NewRunner().runSlots(s, Options{Slots: 20, Packets: 30, AllowIncomplete: true}); err != nil {
		t.Fatal(err)
	} else if e.maxPkt != 30 {
		t.Errorf("wide window: matrix tracks %d packets, want the window's 30", e.maxPkt)
	}
	if e, err = NewRunner().runSlots(&s.stubScheme, Options{Slots: 20, Packets: 4, AllowIncomplete: true}); err != nil {
		t.Fatal(err)
	} else if e.maxPkt != 20*3+3 {
		t.Errorf("uncompiled: matrix tracks %d packets, want slots·cap+cap = 63", e.maxPkt)
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
// the Runner is still good for a run that fits. That run keeps no
// cells, so it completes without allocating a single int32 cell either.
func TestArrivalMatrixCeiling(t *testing.T) {
	r := NewRunner()
	big := &stubScheme{n: 200_000, srcCap: 3}
	for _, slots := range []core.Slot{800_112, math.MaxInt} {
		_, err := r.Run(big, Options{Slots: slots, Packets: 9, Mode: core.Live, AllowIncomplete: true})
		if err == nil || !strings.Contains(err.Error(), "arrival matrix too large: N=200000 nodes") {
			t.Fatalf("Slots=%d: got %v, want the sized ceiling error", slots, err)
		}
	}
	if cap(r.sc.have) != 0 || cap(r.sc.cells) != 0 {
		t.Errorf("a refused run allocated %d presence words and %d cells", cap(r.sc.have), cap(r.sc.cells))
	}
	if _, err := r.Run(chainOfTwo(), Options{Slots: 6, Packets: 1}); err != nil {
		t.Errorf("run after a refused one: %v", err)
	}
	if cap(r.sc.cells) != 0 {
		t.Errorf("a cell-free run allocated %d arrival cells", cap(r.sc.cells))
	}
}
