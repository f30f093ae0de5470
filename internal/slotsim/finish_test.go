package slotsim

import (
	"fmt"
	"math/rand/v2"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"streamcast/internal/core"
	"streamcast/internal/multitree"
)

// maxBufferRef is the buffer-occupancy scan over one node's arrival slots
// (-1 = never arrived): the reference the ledger's peak is held to.
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
	ops := map[core.Slot][]core.TopologyOp{
		3: {{Name: "j1"}},
		7: {{Name: "j2"}, {Leave: true, Name: "j1"}},
	}[t]
	var out []core.ChurnStats
	for _, op := range ops {
		st, err := ds.Apply(t, op)
		if err != nil {
			return out, err
		}
		out = append(out, st)
	}
	return out, nil
}

// joinHeadroom is how many ids a churn case of finishCase reserves past its
// initial population; its two joins reach at most d of them.
const joinHeadroom = 128

// finishCase builds one (scheme, options) input of the epilogue tests.
func finishCase(t testing.TB, kind string, n int, packets core.Packet) (core.Scheme, Options) {
	t.Helper()
	const d = 2
	lossy := func(opt Options) Options {
		opt.AllowIncomplete, opt.SkipUnavailable = true, true
		return opt
	}
	if kind == "churn" {
		ls, err := multitree.NewLiveScheme(n, d, false, core.PreRecorded)
		if err != nil {
			t.Fatal(err)
		}
		return ls, lossy(Options{
			Slots:   core.Slot(int(packets)) + ls.SteadyState() + 14*d + 2,
			Packets: packets,
			// Join headroom past what the two joins reach.
			Churn: joinLeaveChurn{max: ls.NumReceivers() + joinHeadroom},
		})
	}
	m, err := multitree.New(n, d, multitree.Greedy)
	if err != nil {
		t.Fatal(err)
	}
	opt := Options{Slots: core.Slot(int(packets) + m.Height()*d + 4*d + 2), Packets: packets}
	if kind == "drops" {
		opt = lossy(opt)
		opt.Inject = DropFunc(func(x core.Transmission, at core.Slot) bool {
			return (int(x.To)*31+int(x.Packet)*17+int(at))%11 == 0
		})
	}
	return multitree.NewScheme(m, core.PreRecorded), opt
}

// TestFinishMatchesCellwise holds the ledger to a naive reading of the kept
// record, at node counts on both sides of a 64-id word boundary and windows
// from one packet to hundreds. Every case runs twice on fresh Runners —
// without the record, then keeping it — and the two Results must be
// identical, with every metric equal to what the record says cell by cell and
// every MaxBuffer to the reference scan's.
func TestFinishMatchesCellwise(t *testing.T) {
	for _, kind := range []string{"clean", "drops", "churn"} {
		lost := 0
		for _, n := range []int{1, 63, 64, 65, 1000} {
			for _, packets := range []core.Packet{1, 7, 600} {
				name := fmt.Sprintf("%s/N%d/P%d", kind, n, packets)
				s, opt := finishCase(t, kind, n, packets)
				receivers := s.NumReceivers()
				bare, err := NewRunner().Run(s, opt)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				s, opt = finishCase(t, kind, n, packets) // churn mutated the first scheme
				cells := new(Arrivals)
				opt.Arrivals = cells
				res, err := NewRunner().Run(s, opt)
				if err != nil {
					t.Fatalf("%s: keeping cells: %v", name, err)
				}
				if !reflect.DeepEqual(bare, res) {
					t.Fatalf("%s: Result differs between a run that kept its cells and one that did not", name)
				}
				if res.Packets != packets || len(res.StartDelay) != res.N+1 {
					t.Fatalf("%s: Result shape N=%d Packets=%d len(StartDelay)=%d", name, res.N, res.Packets, len(res.StartDelay))
				}
				if kind == "churn" {
					// The run's state spans the churn ceiling; its Result
					// covers the ids the scheme allocated by the end.
					if res.N != s.NumReceivers() {
						t.Fatalf("%s: Result N=%d, the scheme allocated %d ids", name, res.N, s.NumReceivers())
					}
				} else if res.N != receivers {
					t.Fatalf("%s: Result N=%d, scheme has %d receivers", name, res.N, receivers)
				}
				missing := 0
				for id := 0; id <= res.N; id++ {
					row := make([]core.Slot, packets)
					lag, miss := core.Slot(noLag), 0
					for j := range row {
						row[j] = cells.At(core.NodeID(id), core.Packet(j))
						if row[j] == unset {
							miss++
						} else {
							lag = max(lag, row[j]-core.Slot(j))
						}
					}
					if got := cells.Row(core.NodeID(id)); !slices.Equal(got, row) {
						t.Fatalf("%s: Row(%d) = %v, At says %v", name, id, got, row)
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

// TestPeakIsArrivalsByStart is the lemma finish rests on for a node without
// overflow entries: when a node takes at most one packet per slot, its peak
// buffer under playback from slot s is the number of its packets that arrived
// in slots 0..s — for every s, before the first arrival and past the last
// included.
func TestPeakIsArrivalsByStart(t *testing.T) {
	rng := rand.New(rand.NewPCG(27, 1))
	for trial := 0; trial < 2000; trial++ {
		packets := 1 + rng.IntN(40)
		// Distinct arrival slots, some packets missing, in any packet order.
		slots := rng.Perm(packets + rng.IntN(2*packets+1))
		row := make([]core.Slot, packets)
		for j := range row {
			row[j] = core.Slot(slots[j])
			if rng.IntN(8) == 0 {
				row[j] = unset
			}
		}
		for s := core.Slot(-3); s <= core.Slot(len(slots)+3); s++ {
			byStart := 0
			for _, a := range row {
				if a != unset && a <= s {
					byStart++
				}
			}
			if got := maxBufferRef(row, s); got != byStart {
				t.Fatalf("arrivals %v, start %d: peak %d, arrivals by the start %d", row, s, got, byStart)
			}
		}
	}
}

// TestPeakFromOverflow is the rule finish rests on once a node may take several
// packets in one slot: its peak is A(s), or its occupancy A(t) − min(t − s,
// Packets) at one of its overflow slots t > s, whichever is larger. Random
// rows of up to four window arrivals per slot are delivered to a one-receiver
// engine, and finish's MaxBuffer must equal the reference scan's at the start
// the engine derives and at every start from −3 to past the last arrival.
func TestPeakFromOverflow(t *testing.T) {
	rng := rand.New(rand.NewPCG(42, 1))
	overflowed := 0
	for trial := 0; trial < 2000; trial++ {
		packets := 1 + rng.IntN(40)
		horizon := 1 + rng.IntN(packets+4)
		// Up to four packets per slot, some missing, in any packet order.
		row, perSlot, last := make([]core.Slot, packets), make([]int, horizon), core.Slot(-1)
		for j := range row {
			row[j] = unset
			if at := rng.IntN(horizon); rng.IntN(8) != 0 && perSlot[at] < 4 {
				perSlot[at]++
				row[j] = core.Slot(at)
				last = max(last, row[j])
			}
		}
		e, err := newEngine(&stubScheme{n: 1, srcCap: 4}, Options{Slots: core.Slot(horizon), Packets: core.Packet(packets),
			RecvCap: func(core.NodeID) int { return 4 }, AllowIncomplete: true}, &scratch{})
		if err != nil {
			t.Fatal(err)
		}
		for at := core.Slot(0); at <= last; at++ {
			var txs []core.Transmission
			for j, a := range row {
				if a == at {
					txs = append(txs, tx(0, 1, core.Packet(j)))
				}
			}
			if _, err := e.deliver(at, txs); err != nil {
				t.Fatal(err)
			}
		}
		overflowed += len(e.sc.over)
		peak := func() (core.Slot, int) {
			res, err := e.finish()
			if err != nil {
				t.Fatal(err)
			}
			return res.StartDelay[1], res.MaxBuffer[1]
		}
		if s, got := peak(); got != maxBufferRef(row, s) {
			t.Fatalf("arrivals %v, derived start %d: peak %d, reference %d", row, s, got, maxBufferRef(row, s))
		}
		received := uint64(uint32(e.cursor[1]))
		for s := core.Slot(-3); s <= last+3; s++ {
			e.cursor[1] = uint64(uint32(int32(s)))<<32 | received
			if _, got := peak(); got != maxBufferRef(row, s) {
				t.Fatalf("arrivals %v, start %d: peak %d, reference %d", row, s, got, maxBufferRef(row, s))
			}
		}
	}
	if overflowed == 0 {
		t.Fatal("no row put two packets in one slot: the overflow case is vacuous")
	}
}

// TestTwoPerSlotFromBits: under a receive capacity of 2 a node can take two
// window packets in one slot, its count jumps past the start slot's, and the
// peak is no longer the arrivals by the start. A run that keeps no record must
// still agree with the reference scan, from its slot bits and its overflow
// entry.
func TestTwoPerSlotFromBits(t *testing.T) {
	s := &stubScheme{n: 1, srcCap: 2, slots: map[core.Slot][]core.Transmission{
		0: {tx(0, 1, 0)},
		1: {tx(0, 1, 1), tx(0, 1, 2)},
	}}
	r := NewRunner()
	res, err := r.Run(s, Options{Slots: 3, Packets: 3, RecvCap: func(core.NodeID) int { return 2 }})
	if err != nil {
		t.Fatal(err)
	}
	if want := []overflow{{t: 1, id: 1}}; !slices.Equal(r.sc.over, want) {
		t.Errorf("overflow entries %v, want %v", r.sc.over, want)
	}
	row := []core.Slot{0, 1, 1}
	if res.StartDelay[1] != 0 {
		t.Fatalf("StartDelay = %d, want 0", res.StartDelay[1])
	}
	want := maxBufferRef(row, 0)
	if want != 2 {
		t.Fatalf("reference peak %d, want 2 (one more than the arrivals by the start)", want)
	}
	if res.MaxBuffer[1] != want {
		t.Errorf("MaxBuffer = %d, reference scan %d", res.MaxBuffer[1], want)
	}
}

// TestIncompleteRunNamesSmallestNodeAndPacket: several nodes in different
// 64-id blocks miss packets; the error must name the lowest node id and, for
// it, the lowest missing packet — also when a whole block received nothing.
func TestIncompleteRunNamesSmallestNodeAndPacket(t *testing.T) {
	const block = 64
	const n = 3*block + 5
	emptyBlock := func(id core.NodeID) bool { return id >= block && id < 2*block }
	scattered := map[core.Transmission]bool{
		tx(0, 2*block+1, 0): true,
		tx(0, block+2, 0):   true, tx(0, block+2, 1): true,
		tx(0, block+1, 1): true,
	}
	for _, c := range []struct {
		name      string
		skip      func(id core.NodeID, p core.Packet) bool
		node, pkt int
	}{
		{"scattered", func(id core.NodeID, p core.Packet) bool { return scattered[tx(0, id, p)] }, block + 1, 1},
		{"empty block first", func(id core.NodeID, p core.Packet) bool {
			return emptyBlock(id) || id == 2*block+1
		}, block, 0},
		{"empty block after a short node", func(id core.NodeID, p core.Packet) bool {
			return emptyBlock(id) || (id == 5 && p == 1)
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

// TestResultSurvivesRunnerReuse: a Result, and the record kept beside it, own
// their memory. Running other schemes, larger and smaller, on the same Runner
// must not change what an earlier run returned — and each of those runs, on a
// ledger the previous one wrote at another size, must return what a fresh
// Runner does.
func TestResultSurvivesRunnerReuse(t *testing.T) {
	r := NewRunner()
	s, opt := finishCase(t, "drops", 65, 7)
	rec := new(Arrivals)
	opt.Arrivals = rec
	res, err := r.Run(s, opt)
	if err != nil {
		t.Fatal(err)
	}
	keep, keepRec := *res, *rec
	keepRec.store = cloneStore(rec.store)
	keep.StartDelay = slices.Clone(res.StartDelay)
	keep.MaxBuffer = slices.Clone(res.MaxBuffer)
	keep.Missing = slices.Clone(res.Missing)
	for _, other := range []struct {
		kind    string
		n       int
		packets core.Packet
	}{{"clean", 1000, 7}, {"churn", 63, 600}, {"clean", 64, 600}, {"clean", 1, 1}} {
		s2, opt2 := finishCase(t, other.kind, other.n, other.packets)
		got, err := r.Run(s2, opt2)
		if err != nil {
			t.Fatal(err)
		}
		s2, opt2 = finishCase(t, other.kind, other.n, other.packets)
		if want, err := NewRunner().Run(s2, opt2); err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("%s N=%d on a reused Runner differs from a fresh one (%v)", other.kind, other.n, err)
		}
		if !reflect.DeepEqual(&keep, res) || !reflect.DeepEqual(&keepRec, rec) {
			t.Fatalf("Result or record changed after the Runner ran %s N=%d", other.kind, other.n)
		}
	}
}

// TestFinishBytesCeiling: the epilogue allocates the Result and three
// per-node slices — O(N) bytes whatever the window, the slot bits and the
// overflow entries being the Runner's and a kept record the caller's — on a
// bare run, one that keeps its record and one under a receive capacity of 2.
// A cold run at 600 packets that keeps no record allocates no 4·(N+1)·Packets
// int32 matrix at all, under a custom RecvCap too.
func TestFinishBytesCeiling(t *testing.T) {
	const n = 1000
	// 24 B per node for the three slices, rounded up generously for size
	// classes, plus a fixed allowance for the Result header.
	const perNode = 32*(n+1) + 1<<16
	const matrix = 4 * (n + 1) * 600
	for _, c := range []struct {
		name    string
		packets core.Packet
		opt     func(*Options)
		cold    uint64 // ceiling of a whole run on a fresh Runner; 0 = unchecked
	}{
		{"bare/P8", 8, nil, 0},
		{"bare/P600", 600, nil, matrix},
		{"cells/P600", 600, func(o *Options) { o.Arrivals = new(Arrivals) }, 0},
		{"recvcap/P600", 600, func(o *Options) { o.RecvCap = func(core.NodeID) int { return 2 } }, matrix},
	} {
		t.Run(c.name, func(t *testing.T) {
			run := func() (core.Scheme, Options) {
				s, opt := finishCase(t, "clean", n, c.packets)
				if c.opt != nil {
					c.opt(&opt)
				}
				return s, opt
			}
			if c.cold > 0 {
				s, opt := run()
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				_, err := NewRunner().Run(s, opt)
				runtime.ReadMemStats(&after)
				if err != nil {
					t.Fatal(err)
				}
				if got := after.TotalAlloc - before.TotalAlloc; got >= c.cold {
					t.Errorf("a cold run allocated %d bytes for N=%d Packets=%d, at least the %d of an int32 window matrix", got, n, c.packets, c.cold)
				}
			}
			s, opt := run()
			e, err := NewRunner().runSlots(s, opt)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := e.finish(); err != nil { // sort the overflow entries once
				t.Fatal(err)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			finishSink, err = e.finish()
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			if got := after.TotalAlloc - before.TotalAlloc; got > perNode {
				t.Errorf("finish allocated %d bytes for N=%d Packets=%d, ceiling %d", got, n, c.packets, perNode)
			}
			if allocs := testing.AllocsPerRun(3, func() { finishSink, _ = e.finish() }); allocs > 4 {
				t.Errorf("finish made %.0f allocations, want at most 4 (the Result and three per-node slices)", allocs)
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
	// Summarise once before timing, so that B/op does not depend on b.N:
	// `make bench-gate` holds this row to its bytes.
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
