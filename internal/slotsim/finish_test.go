package slotsim

import (
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"streamcast/internal/core"
	"streamcast/internal/multitree"
)

// maxBufferRef is the buffer-occupancy scan as it was written against
// []core.Slot rows (-1 = never arrived), kept as the oracle for the packed
// maxBuffer.
func maxBufferRef(arrival []core.Slot, start core.Slot) int {
	var lastSlot core.Slot
	counts := map[core.Slot]int{}
	for _, a := range arrival {
		if a == unset {
			continue
		}
		counts[a]++
		if a > lastSlot {
			lastSlot = a
		}
	}
	peak, have := 0, 0
	for t := core.Slot(0); t <= lastSlot; t++ {
		have += counts[t]
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

// joinLeaveChurn is a scripted ChurnSource: two joins and the departure of
// the first joiner, which work at any initial population.
type joinLeaveChurn struct{ max int }

func (c joinLeaveChurn) MaxNodes() int { return c.max }
func (c joinLeaveChurn) Step(t core.Slot, ds core.DynamicScheme) ([]core.ChurnStats, error) {
	switch t {
	case 3:
		return ds.ApplyOps(t, []core.TopologyOp{{Name: "j1"}})
	case 7:
		return ds.ApplyOps(t, []core.TopologyOp{{Name: "j2"}, {Leave: true, Name: "j1"}})
	}
	return nil, nil
}

// finishCase builds one (scheme, options) input of the epilogue tests.
func finishCase(t testing.TB, kind string, n int, packets core.Packet) (core.Scheme, Options) {
	t.Helper()
	const d = 2
	lossy := func(opt Options) Options {
		opt.AllowIncomplete, opt.SkipUnavailable, opt.AllowDuplicates = true, true, true
		return opt
	}
	if kind == "churn" {
		dy, err := multitree.NewDynamic(n, d, false)
		if err != nil {
			t.Fatal(err)
		}
		ls := multitree.NewLiveScheme(dy, core.PreRecorded)
		return ls, lossy(Options{
			Slots:   core.Slot(int(packets)) + ls.SteadyState() + 14*d + 2,
			Packets: packets,
			// Join headroom wide enough to hold a whole tile no join reaches.
			Churn: joinLeaveChurn{max: ls.NumReceivers() + 2*finishTile},
		})
	}
	m, err := multitree.New(n, d, multitree.Greedy)
	if err != nil {
		t.Fatal(err)
	}
	opt := Options{Slots: core.Slot(int(packets) + m.Height()*d + 4*d + 2), Packets: packets}
	if kind == "drops" {
		opt = lossy(opt)
		opt.Drop = func(x core.Transmission, at core.Slot) bool {
			return (int(x.To)*31+int(x.Packet)*17+int(at))%11 == 0
		}
	}
	return multitree.NewScheme(m, core.PreRecorded), opt
}

// TestFinishMatchesCellwise holds the blocked epilogue to a naive reading of
// the scratch matrix, one cell at a time, at node counts on both sides of a
// tile boundary and windows from one packet to hundreds. Every case is
// summarised twice from the same engine state — tiles gathered into the reused
// scratch, then into a matrix the run keeps — and the two must agree on every
// metric, with the kept cells equal to the scratch matrix.
func TestFinishMatchesCellwise(t *testing.T) {
	for _, kind := range []string{"clean", "drops", "churn"} {
		lost := 0
		for _, n := range []int{1, 63, 64, 65, 1000} {
			for _, packets := range []core.Packet{1, 7, 600} {
				name := fmt.Sprintf("%s/N%d/P%d", kind, n, packets)
				s, opt := finishCase(t, kind, n, packets)
				e, err := NewRunner().runSlots(s, opt)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				bare, err := e.finish()
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				cells := new(Arrivals)
				e.opt.Arrivals = cells
				res, err := e.finish()
				if err != nil {
					t.Fatalf("%s: keeping cells: %v", name, err)
				}
				if !reflect.DeepEqual(bare, res) {
					t.Fatalf("%s: Result differs between a run that kept its cells and one that did not", name)
				}
				if kind == "churn" {
					if e.n <= s.NumReceivers() {
						t.Fatalf("%s: engine sized for %d ids, scheme has %d: the padded-id case is vacuous", name, e.n, s.NumReceivers())
					}
					lo := (e.n + 1 - finishTile) / finishTile * finishTile // the last whole tile
					if !receivedNone(e.cursor[lo : lo+finishTile]) {
						t.Fatalf("%s: ids %d..%d received packets: the empty-tile case is vacuous", name, lo, lo+finishTile-1)
					}
				}
				if res.N != e.n || res.Packets != packets || len(res.StartDelay) != e.n+1 {
					t.Fatalf("%s: Result shape N=%d Packets=%d len(StartDelay)=%d, engine n=%d", name, res.N, res.Packets, len(res.StartDelay), e.n)
				}
				missing := 0
				for id := 0; id <= e.n; id++ {
					row := make([]core.Slot, packets)
					lag, miss := core.Slot(noLag), 0
					for j := range row {
						row[j] = core.Slot(e.arr[j*e.stride+id]) - 1
						if got := cells.At(core.NodeID(id), core.Packet(j)); got != row[j] {
							t.Fatalf("%s: At(%d, %d) = %d, scratch matrix says %d", name, id, j, got, row[j])
						}
						if row[j] == unset {
							miss++
						} else {
							lag = max(lag, row[j]-core.Slot(j))
						}
					}
					if got := cells.Row(core.NodeID(id)); !slices.Equal(got, row) {
						t.Fatalf("%s: Row(%d) = %v, want %v", name, id, got, row)
					}
					if id == 0 {
						if miss != int(packets) {
							t.Fatalf("%s: source row holds arrivals: %v", name, row)
						}
						continue
					}
					if lag == core.Slot(noLag) {
						lag = 0
					}
					if res.Missing[id] != miss || res.StartDelay[id] != lag {
						t.Fatalf("%s: node %d Missing=%d StartDelay=%d, cell by cell %d and %d", name, id, res.Missing[id], res.StartDelay[id], miss, lag)
					}
					if want := maxBufferRef(row, lag); res.MaxBuffer[id] != want {
						t.Fatalf("%s: node %d MaxBuffer=%d, reference scan %d", name, id, res.MaxBuffer[id], want)
					}
					missing += miss
				}
				lost += missing
			}
		}
		if (kind == "clean") != (lost == 0) {
			t.Errorf("%s runs: %d window packets missing in all", kind, lost)
		}
	}
}

// TestIncompleteRunNamesSmallestNodeAndPacket: several nodes in different
// tiles miss packets; the error must name the lowest node id and, for it,
// the lowest missing packet — also when a whole tile received nothing, which
// finish recognises without gathering it.
func TestIncompleteRunNamesSmallestNodeAndPacket(t *testing.T) {
	const n = 3*finishTile + 5
	emptyTile := func(id core.NodeID) bool { return id >= finishTile && id < 2*finishTile }
	scattered := map[core.Transmission]bool{
		tx(0, 2*finishTile+1, 0): true,
		tx(0, finishTile+2, 0):   true, tx(0, finishTile+2, 1): true,
		tx(0, finishTile+1, 1): true,
	}
	for _, c := range []struct {
		name      string
		skip      func(id core.NodeID, p core.Packet) bool
		node, pkt int
	}{
		{"scattered", func(id core.NodeID, p core.Packet) bool { return scattered[tx(0, id, p)] }, finishTile + 1, 1},
		{"empty tile first", func(id core.NodeID, p core.Packet) bool {
			return emptyTile(id) || id == 2*finishTile+1
		}, finishTile, 0},
		{"empty tile after a short node", func(id core.NodeID, p core.Packet) bool {
			return emptyTile(id) || (id == 5 && p == 1)
		}, 5, 1},
	} {
		s := &stubScheme{n: n, srcCap: n, slots: map[core.Slot][]core.Transmission{}}
		for p := core.Packet(0); p < 2; p++ {
			for id := core.NodeID(1); id <= n; id++ {
				if !c.skip(id, p) {
					s.slots[core.Slot(p)] = append(s.slots[core.Slot(p)], tx(0, id, p))
				}
			}
		}
		want := fmt.Sprintf("node %d never received packet %d within 3 slots", c.node, c.pkt)
		for _, keep := range []*Arrivals{nil, new(Arrivals)} {
			_, err := Run(s, Options{Slots: 3, Packets: 2, Arrivals: keep})
			if err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("%s (cells kept: %v): got %v, want an error naming %q", c.name, keep != nil, err, want)
			}
		}
	}
}

// TestResultSurvivesRunnerReuse: a Result, and the cells kept beside it, own
// their memory. Running other schemes, larger and smaller, on the same Runner
// must not change what an earlier run returned.
func TestResultSurvivesRunnerReuse(t *testing.T) {
	r := NewRunner()
	s, opt := finishCase(t, "drops", 65, 7)
	cells := new(Arrivals)
	opt.Arrivals = cells
	res, err := r.Run(s, opt)
	if err != nil {
		t.Fatal(err)
	}
	keep, keepCells := *res, *cells
	keepCells.cells = slices.Clone(cells.cells)
	keep.StartDelay = slices.Clone(res.StartDelay)
	keep.MaxBuffer = slices.Clone(res.MaxBuffer)
	keep.Missing = slices.Clone(res.Missing)
	for _, other := range []struct {
		kind    string
		n       int
		packets core.Packet
	}{{"clean", 1000, 7}, {"churn", 63, 600}, {"clean", 1, 1}} {
		s2, opt2 := finishCase(t, other.kind, other.n, other.packets)
		if _, err := r.Run(s2, opt2); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(&keep, res) || !reflect.DeepEqual(&keepCells, cells) {
			t.Fatalf("Result or cells changed after the Runner ran %s N=%d", other.kind, other.n)
		}
	}
}

// TestFinishBytesCeiling: what the epilogue allocates depends on whether the
// run keeps its cells. Without them it is the Result and three per-node
// slices — O(N) bytes whatever the window, the tile buffer being the Runner's.
// With them it adds the int32 window matrix, 4·(N+1)·Packets bytes; a matrix
// of 8-byte slots would be twice that ceiling.
func TestFinishBytesCeiling(t *testing.T) {
	const n = 1000
	// 24 B per node for the three slices, rounded up generously for size
	// classes, plus a fixed allowance for the Result header.
	const perNode = 32*(n+1) + 1<<16
	for _, c := range []struct {
		name    string
		packets core.Packet
		keep    bool
		ceiling uint64
		allocs  float64
	}{
		{"bare/P8", 8, false, perNode, 4},
		{"bare/P600", 600, false, perNode, 4},
		{"cells/P600", 600, true, 4*(n+1)*600 + perNode, 5},
	} {
		t.Run(c.name, func(t *testing.T) {
			s, opt := finishCase(t, "clean", n, c.packets)
			e, err := NewRunner().runSlots(s, opt)
			if err != nil {
				t.Fatal(err)
			}
			if c.keep {
				e.opt.Arrivals = new(Arrivals)
			}
			if _, err := e.finish(); err != nil { // grow the counts and tile scratch
				t.Fatal(err)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			finishSink, err = e.finish()
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			if got := after.TotalAlloc - before.TotalAlloc; got > c.ceiling {
				t.Errorf("finish allocated %d bytes for N=%d Packets=%d, ceiling %d", got, n, c.packets, c.ceiling)
			}
			if allocs := testing.AllocsPerRun(3, func() { finishSink, _ = e.finish() }); allocs > c.allocs {
				t.Errorf("finish made %.0f allocations, want at most %.0f (Result, three per-node slices, and the matrix when kept)", allocs, c.allocs)
			}
		})
	}
}

var finishSink *Result

// BenchmarkFinish times the epilogue alone on the wide-window shape of the
// dense benchmark workloads (multitree d=4, N≈31 000, 600 window packets):
// one slot loop fills the engine, then every iteration summarises it again.
func BenchmarkFinish(b *testing.B) {
	m, err := multitree.New(31000, 4, multitree.Greedy)
	if err != nil {
		b.Fatal(err)
	}
	s := multitree.NewScheme(m, core.PreRecorded)
	opt := Options{Slots: core.Slot(600 + m.Height()*4 + 4), Packets: 600}
	e, err := NewRunner().runSlots(s, opt)
	if err != nil {
		b.Fatal(err)
	}
	// Grow the Runner's counts and tile scratch first, so that B/op does not
	// depend on b.N: `make bench-gate` holds this row to its bytes.
	if _, err := e.finish(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if finishSink, err = e.finish(); err != nil {
			b.Fatal(err)
		}
	}
}
