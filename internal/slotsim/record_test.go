package slotsim

import (
	"fmt"
	"slices"
	"testing"

	"streamcast/internal/core"
)

// storeBytes is the size of a record's backing store in bytes, and the width
// of its cells.
func storeBytes(a *Arrivals) (size, width int) {
	switch c := a.store.(type) {
	case cells[uint8]:
		return len(c), 1
	case cells[uint16]:
		return 2 * len(c), 2
	case cells[uint32]:
		return 4 * len(c), 4
	}
	return 0, 0
}

// cloneStore is a copy of a record's cells at their width.
func cloneStore(s store) store {
	switch c := s.(type) {
	case cells[uint8]:
		return slices.Clone(c)
	case cells[uint16]:
		return slices.Clone(c)
	case cells[uint32]:
		return slices.Clone(c)
	}
	return nil
}

// TestRecordWidth runs a record on both sides of each cell-width boundary,
// with an arrival at the end of the horizon's last slot, the largest cell the
// width must hold: the backing store is (ids + 1) · Packets · width bytes, and
// At, Row and Hiccups read the slots back. One record is handed to every run,
// so it changes width between runs, or keeps its width and its memory, and
// then the cell the previous run wrote at the other node must be gone.
func TestRecordWidth(t *testing.T) {
	rec := new(Arrivals)
	for _, c := range []struct {
		slots core.Slot
		width int
		last  core.NodeID // the node that receives packet 0 in the last slot
	}{{255, 1, 1}, {256, 2, 1}, {65535, 2, 3}, {65536, 4, 1}, {70000, 4, 3}, {200, 1, 3}} {
		t.Run(fmt.Sprint(c.slots), func(t *testing.T) {
			// Node 2 takes packet 1 in slot 0, and node last packet 0 in the
			// horizon's last slot; the rest of the window never arrives.
			s := &stubScheme{n: 3, srcCap: 1, slots: map[core.Slot][]core.Transmission{
				0:           {tx(0, 2, 1)},
				c.slots - 1: {tx(0, c.last, 0)},
			}}
			res, err := Run(s, Options{Slots: c.slots, Packets: 2, AllowIncomplete: true, Arrivals: rec})
			if err != nil {
				t.Fatal(err)
			}
			if size, width := storeBytes(rec); width != c.width || size != (3+1)*2*c.width {
				t.Errorf("store of %d bytes at %d-byte cells, want %d-byte cells, %d bytes", size, width, c.width, (3+1)*2*c.width)
			}
			top := c.slots - 1
			for id := core.NodeID(0); id <= 3; id++ {
				want := []core.Slot{-1, -1}
				if id == c.last {
					want[0] = top
				}
				if id == 2 {
					want[1] = 0
				}
				if got := rec.Row(id); !slices.Equal(got, want) {
					t.Errorf("node %d: Row %v, want %v", id, got, want)
				}
				for j, at := range want {
					if got := rec.At(id, core.Packet(j)); got != at {
						t.Errorf("node %d packet %d: At %d, want %d", id, j, got, at)
					}
				}
			}
			if got := rec.Hiccups(c.last, top-1); got != 2 {
				t.Errorf("Hiccups from slot %d: %d, want 2 (packet 0 late, packet 1 missing)", top-1, got)
			}
			if got := rec.Hiccups(c.last, top); got != 1 {
				t.Errorf("Hiccups from slot %d: %d, want 1 (packet 1 missing)", top, got)
			}
			if res.SlotsUsed != c.slots || res.StartDelay[c.last] != top {
				t.Errorf("SlotsUsed %d, start delay %d; want %d and %d", res.SlotsUsed, res.StartDelay[c.last], c.slots, top)
			}
		})
	}
}
