package obs_test

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"unsafe"

	"streamcast/internal/core"
	"streamcast/internal/obs"
	"streamcast/internal/slotsim"
	"streamcast/internal/spec"
)

// seriesFromOccupancy derives buffer_max and buffer_total the way the run
// report once did: from the whole nodes × slots occupancy matrix of the
// test-only reference, over receivers 1..len(start)−1.
func seriesFromOccupancy(m *obs.Metrics, start []core.Slot, window core.Packet) (peak, total []int) {
	occ := m.OccupancySeries(start, window)
	slots := 0
	for _, row := range occ {
		slots = max(slots, len(row))
	}
	peak, total = make([]int, slots), make([]int, slots)
	for id := 1; id < len(occ) && id < len(start); id++ {
		for t, v := range occ[id] {
			total[t] += v
			peak[t] = max(peak[t], v)
		}
	}
	return peak, total
}

// bufferRuns are the seeded runs the buffer fold is held to the reference on:
// clean schedules of two families, live churn over loss (drops, duplicates,
// recycled ids), and a delay plan, which lifts RecvCap so that a node can
// take two packets in one slot.
var bufferRuns = []struct {
	name, scenario string
	files          map[string]string
	clean          bool // per-node maxima must equal Result.MaxBuffer
}{
	{name: "multitree-clean", scenario: "scheme multitree\nparam d=3 n=40\npackets 12\n", clean: true},
	{name: "hypercube-clean", scenario: "scheme hypercube\nparam d=2 n=31\npackets 10\n", clean: true},
	{
		name:     "multitree-churn-loss",
		scenario: "scheme multitree\nparam d=3 n=300\npackets 40\nfaults file=%s\nchurn kind=poisson rate=1 seed=5 policy=lazy slots=8..\n",
		files:    map[string]string{"loss.plan": "seed 7\nloss from=any to=any rate=0.05 slots=0..\n"},
	},
	{
		name:     "multitree-delay",
		scenario: "scheme multitree\nparam d=3 n=120\npackets 24\nfaults file=%s\n",
		files:    map[string]string{"delay.plan": "seed 3\ndelay from=any to=any extra=2 rate=0.3 slots=0..\n"},
	},
}

// TestBufferSeriesMatchesOccupancy: the run report's buffer_max and
// buffer_total, folded from the arrival log node by node, must equal the
// series derived from the full occupancy matrix on every run, and together
// the runs must exercise drops, duplicates, two arrivals at one node in one
// slot, and a receiver that has played more packets than it holds, where
// occupancy clamps at 0.
func TestBufferSeriesMatchesOccupancy(t *testing.T) {
	dir := t.TempDir()
	sawDrop, sawDup, sawPair, sawClamp := false, false, false, false
	for _, c := range bufferRuns {
		text := c.scenario
		for name, body := range c.files {
			path := filepath.Join(dir, name)
			if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
				t.Fatal(err)
			}
			text = fmt.Sprintf(text, path)
		}
		sc, err := spec.Parse(text)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		run, err := spec.Build(sc)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		m, rec := obs.NewMetrics(), &obs.Recorder{}
		opt := run.Opt
		opt.Observer = obs.Combine(m, rec)
		res, err := slotsim.Run(run.Scheme, opt)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		rep := slotsim.BuildReport(run.Scheme, opt, res, m, 0)
		wantMax, wantTotal := seriesFromOccupancy(m, res.StartDelay, res.Packets)
		if !reflect.DeepEqual(rep.Series.BufferMax, wantMax) {
			t.Errorf("%s: buffer_max\n got %v\nwant %v", c.name, rep.Series.BufferMax, wantMax)
		}
		if !reflect.DeepEqual(rep.Series.BufferTotal, wantTotal) {
			t.Errorf("%s: buffer_total\n got %v\nwant %v", c.name, rep.Series.BufferTotal, wantTotal)
		}
		if c.clean {
			for id, row := range m.OccupancySeries(res.StartDelay, res.Packets) {
				if id == 0 || id > res.N {
					continue
				}
				peak := 0
				for _, v := range row {
					peak = max(peak, v)
				}
				if peak != res.MaxBuffer[id] {
					t.Errorf("%s: node %d: occupancy peaks at %d, engine MaxBuffer %d", c.name, id, peak, res.MaxBuffer[id])
				}
			}
		}
		tot := m.Totals()
		sawDrop = sawDrop || tot.Drops > 0
		sawDup = sawDup || tot.Duplicates > 0
		sawClamp = sawClamp || m.Underflows(res.StartDelay, res.Packets) > 0
		type at struct {
			t  core.Slot
			id core.NodeID
		}
		got := map[at]int{}
		for _, e := range rec.Events {
			if e.Kind == obs.KindDeliver && !e.Dup {
				got[at{e.Slot, e.Tx.To}]++
				sawPair = sawPair || got[at{e.Slot, e.Tx.To}] > 1
			}
		}
	}
	if !sawDrop || !sawDup || !sawPair || !sawClamp {
		t.Fatalf("the runs must cover drops (%v), duplicates (%v), two arrivals in one slot (%v) and a clamped occupancy (%v)",
			sawDrop, sawDup, sawPair, sawClamp)
	}
}

// TestBufferSeriesHandDriven folds small hand-written logs: a burst that
// drains one packet per slot, a node that runs dry (its missing packets are
// played while it holds fewer than that) and refills, a recycled id that
// takes the window twice over and so never drains, deliveries to the source
// and to ids past the Result's, and packets beyond the window.
func TestBufferSeriesHandDriven(t *testing.T) {
	m := obs.NewMetrics()
	deliver := map[core.Slot][]core.Transmission{
		0: {{From: 0, To: 1, Packet: 0}, {From: 1, To: 0, Packet: 0}},
		2: {{From: 0, To: 2, Packet: 0}, {From: 0, To: 2, Packet: 1}, {From: 0, To: 2, Packet: 2}},
		3: {{From: 0, To: 1, Packet: 3}, {From: 0, To: 1, Packet: 4}, {From: 0, To: 1, Packet: 5}, {From: 0, To: 1, Packet: 6},
			{From: 0, To: 4, Packet: 0}, {From: 1, To: 0, Packet: 1}},
		4: {{From: 0, To: 1, Packet: 9}},
	}
	for p := core.Packet(0); p < 8; p++ {
		deliver[1] = append(deliver[1], core.Transmission{From: 0, To: 3, Packet: p})
		if p < 4 {
			deliver[5] = append(deliver[5], core.Transmission{From: 0, To: 3, Packet: p})
		}
	}
	for t := core.Slot(0); t < 12; t++ {
		m.SlotStart(t, 0)
		for _, tx := range deliver[t] {
			m.Deliver(t, tx, false)
		}
		m.SlotEnd(t)
	}
	// Node 4 is past the Result's receivers (len(start) = 4).
	start := []core.Slot{0, 0, 3, 0}
	peak, total := m.BufferSeries(start, 8)
	wantMax, wantTotal := seriesFromOccupancy(m, start, 8)
	if !reflect.DeepEqual(peak, wantMax) || !reflect.DeepEqual(total, wantTotal) {
		t.Fatalf("fold (%v, %v), reference (%v, %v)", peak, total, wantMax, wantTotal)
	}
	// Node 1 holds packet 0 at slot 0, runs dry through slots 1–2 while
	// packets 1–2 are missing, and holds 3–6 from slot 3:  1 0 0 2 1 0 …
	// Node 2's burst of three at slot 2 drains from slot 4: 0 0 3 3 2 1 0 …
	// Node 3 holds 12 packets of an 8-packet window:        0 7 6 5 4 7 6 5 4 4 4 4
	if want := []int{1, 7, 9, 10, 7, 8, 6, 5, 4, 4, 4, 4}; !reflect.DeepEqual(total, want) {
		t.Errorf("buffer_total %v, want %v", total, want)
	}
	if want := []int{1, 7, 6, 5, 4, 7, 6, 5, 4, 4, 4, 4}; !reflect.DeepEqual(peak, want) {
		t.Errorf("buffer_max %v, want %v", peak, want)
	}
	if m.Underflows(start, 8) == 0 {
		t.Error("node 1 never played more packets than it held: the clamp is untested")
	}
}

// TestArrivalRecordSize pins the arrival log's record at 8 bytes: node and
// packet, no slot.
func TestArrivalRecordSize(t *testing.T) {
	if got := unsafe.Sizeof(obs.ArrivalRecord{}); got != 8 {
		t.Fatalf("an arrival record is %d bytes, want 8", got)
	}
}
