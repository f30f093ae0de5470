package slotsim

import (
	"reflect"
	"testing"

	"streamcast/internal/core"
)

// arrival is one window packet reaching a node at the end of a slot.
type arrival struct {
	id core.NodeID
	j  core.Packet
	t  core.Slot
}

// writeRecord books arrivals into rec as a run does after deliver.
func writeRecord(rec *Arrivals, arrivals ...arrival) {
	for _, a := range arrivals {
		rec.store.note(a.t, rec.stride, rec.packets, []core.Transmission{{To: a.id, Packet: a.j}})
	}
}

// handRecord is an empty record over ids 0..n and a window of packets, at
// the cell width of a horizon of slots.
func handRecord(n int, packets core.Packet, slots core.Slot) *Arrivals {
	rec := new(Arrivals)
	rec.size(n+1, packets, slots)
	return rec
}

// handResult holds the Result fields the fold reads: the playback starts
// given, and Missing counted off the record as finish counts it off the
// ledger.
func handResult(rec *Arrivals, start map[core.NodeID]core.Slot) *Result {
	n := rec.stride - 1
	res := &Result{N: n, Packets: rec.packets, StartDelay: make([]core.Slot, n+1), Missing: make([]int, n+1)}
	for id, s := range start {
		res.StartDelay[id] = s
	}
	for id := 1; id <= n; id++ {
		for j := core.Packet(0); j < rec.packets; j++ {
			if rec.At(core.NodeID(id), j) == unset {
				res.Missing[id]++
			}
		}
	}
	return res
}

// TestBufferSeriesHandDriven folds a hand-written record: a node that runs
// dry (its missing packets are played while it holds fewer than that) and
// refills in a four-packet slot, a burst that drains one packet per slot, a
// revived id whose row forget wiped as resetNode does, so that only its new
// occupant's packets count, ids that received nothing (skipped, whole blocks
// of them), and a node in a later block of ids still holding packets when the
// observed slots end. It folds the record at every cell width.
func TestBufferSeriesHandDriven(t *testing.T) {
	for _, horizon := range []core.Slot{255, 256, 65536} {
		handDrivenSeries(t, handRecord(70, 8, horizon))
	}
}

func handDrivenSeries(t *testing.T, rec *Arrivals) {
	t.Helper()
	writeRecord(rec,
		arrival{1, 0, 0}, arrival{1, 3, 3}, arrival{1, 4, 3}, arrival{1, 5, 3}, arrival{1, 6, 3},
		arrival{2, 0, 2}, arrival{2, 1, 2}, arrival{2, 2, 2})
	for j := core.Packet(0); j < 8; j++ {
		writeRecord(rec, arrival{3, j, 1}, arrival{70, j, 4 + core.Slot(j)})
	}
	// Node 3's member leaves; the member the id is revived for at slot 4
	// takes packets 0–3 at slot 5.
	rec.forget(3)
	for j := core.Packet(0); j < 4; j++ {
		writeRecord(rec, arrival{3, j, 5})
	}
	res := handResult(rec, map[core.NodeID]core.Slot{1: 0, 2: 3, 3: 5, 70: 4})
	peak, total := rec.bufferSeries(res, 12)
	// Node 1 holds packet 0 at slot 0, runs dry through slots 1–2 while
	// packets 1–2 are missing, and holds 3–6 from slot 3:  1 0 0 2 1 0 …
	// Node 2's burst of three at slot 2 drains from slot 4: 0 0 3 3 2 1 0 …
	// Node 3's new occupant plays from slot 5:              0 0 0 0 0 4 3 2 1 0 …
	// Node 70 keeps one packet from slot 4 to the end:      0 0 0 0 1 1 1 1 1 1 1 1
	_, width := storeBytes(rec)
	if want := []int{1, 0, 3, 5, 4, 6, 4, 3, 2, 1, 1, 1}; !reflect.DeepEqual(total, want) {
		t.Errorf("%d-byte cells: buffer_total %v, want %v", width, total, want)
	}
	if want := []int{1, 0, 3, 3, 2, 4, 3, 2, 1, 1, 1, 1}; !reflect.DeepEqual(peak, want) {
		t.Errorf("%d-byte cells: buffer_max %v, want %v", width, peak, want)
	}
}

// TestOccupancySeries folds a chain: node 1 receives packet j at slot j and
// plays it at once, node 2 receives it a slot later and starts a slot later,
// so each holds one packet through its window and none after.
func TestOccupancySeries(t *testing.T) {
	rec := handRecord(2, 5, 7)
	for j := core.Packet(0); j < 5; j++ {
		writeRecord(rec, arrival{1, j, core.Slot(j)}, arrival{2, j, core.Slot(j) + 1})
	}
	peak, total := rec.bufferSeries(handResult(rec, map[core.NodeID]core.Slot{1: 0, 2: 1}), 7)
	if want := []int{1, 2, 2, 2, 2, 1, 0}; !reflect.DeepEqual(total, want) {
		t.Errorf("buffer_total %v, want %v", total, want)
	}
	if want := []int{1, 1, 1, 1, 1, 1, 0}; !reflect.DeepEqual(peak, want) {
		t.Errorf("buffer_max %v, want %v", peak, want)
	}
}

// TestOccupancyBurst: three packets land in slot 2 but playback starts at
// slot 3, so the buffer peaks at 3 and drains one per slot (packet j occupies
// it through the end of its playback slot start+j).
func TestOccupancyBurst(t *testing.T) {
	rec := handRecord(1, 3, 7)
	writeRecord(rec, arrival{1, 0, 2}, arrival{1, 1, 2}, arrival{1, 2, 2})
	peak, _ := rec.bufferSeries(handResult(rec, map[core.NodeID]core.Slot{1: 3}), 7)
	if want := []int{0, 0, 3, 3, 2, 1, 0}; !reflect.DeepEqual(peak, want) {
		t.Errorf("burst occupancy %v, want %v", peak, want)
	}
}
