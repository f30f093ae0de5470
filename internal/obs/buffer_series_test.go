package obs_test

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"streamcast/internal/core"
	"streamcast/internal/obs"
	"streamcast/internal/slotsim"
	"streamcast/internal/spec"
)

// occupancy is the reference the report's buffer fold is held to, read cell
// by cell off the run's arrival record: receiver id's buffer occupancy at the
// end of every slot 0..slots−1 — the window packets it holds by then minus
// those already played, clamped at zero — handed to row one receiver at a
// time. paired counts the (receiver, slot) cells in which a receiver took
// more than one window packet, clamped those at which a receiver holding
// packets has played more than it holds.
func occupancy(rec *slotsim.Arrivals, res *slotsim.Result, slots int, row func(id int, occ []int)) (paired, clamped int) {
	arrived := make([]int, slots)
	occ := make([]int, slots)
	for id := 1; id <= res.N; id++ {
		clear(arrived)
		for j := core.Packet(0); j < res.Packets; j++ {
			if at := int(rec.At(core.NodeID(id), j)); at >= 0 && at < slots {
				arrived[at]++
			}
		}
		have := 0
		for t := range occ {
			if arrived[t] > 1 {
				paired++
			}
			have += arrived[t]
			played := min(max(t-int(res.StartDelay[id]), 0), int(res.Packets))
			occ[t] = max(have-played, 0)
			if have > 0 && have < played {
				clamped++
			}
		}
		row(id, occ)
	}
	return paired, clamped
}

// bufferRuns are the seeded runs the buffer fold is held to the reference on:
// clean schedules of two families, live churn over loss (drops, duplicates,
// recycled ids) at two sizes, the larger the `churn-faulted` benchmark shape,
// and a delay plan, which lifts RecvCap so that a node can take two packets in
// one slot.
var bufferRuns = []struct {
	name, scenario string
	files          map[string]string
}{
	{name: "multitree-clean", scenario: "scheme multitree\nparam d=3 n=40\npackets 12\n"},
	{name: "hypercube-clean", scenario: "scheme hypercube\nparam d=2 n=31\npackets 10\n"},
	{
		name:     "multitree-churn-loss",
		scenario: "scheme multitree\nparam d=3 n=300\npackets 40\nfaults file=%s\nchurn kind=poisson rate=1 seed=5 policy=lazy slots=8..\n",
		files:    map[string]string{"loss.plan": "seed 7\nloss from=any to=any rate=0.05 slots=0..\n"},
	},
	{
		name:     "churn-faulted",
		scenario: "scheme multitree\nparam d=3 n=10000\npackets 200\nfaults file=%s\nchurn kind=poisson rate=1 seed=11 policy=lazy slots=20..\n",
		files:    map[string]string{"loss2.plan": "seed 7\nloss from=any to=any rate=0.02 slots=0..\n"},
	},
	{
		name:     "multitree-delay",
		scenario: "scheme multitree\nparam d=3 n=120\npackets 24\nfaults file=%s\n",
		files:    map[string]string{"delay.plan": "seed 3\ndelay from=any to=any extra=2 rate=0.3 slots=0..\n"},
	},
}

// TestBufferSeriesMatchesOccupancy: on every run, churned and delay-plan runs
// included, the run report's buffer_max and buffer_total must equal the
// series summed from the reference occupancy, each receiver's occupancy must
// peak at its Result.MaxBuffer, and max(buffer_max) must be WorstBuffer — the
// report agrees with its own per_node and aggregates. A revived id counts only
// its new occupant's packets: counting the departed member's too made the
// `churn-faulted` shape's buffer_max peak at 10 against a worst buffer of 8.
// Together the runs must exercise drops, duplicates, two arrivals at one node
// in one slot, and a receiver that has played more packets than it holds,
// where occupancy clamps at 0.
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
		sc, err := spec.Parse(text + "out report=" + filepath.Join(dir, "r.json") + "\n")
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		run, err := spec.Build(sc)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		m := obs.NewMetrics()
		opt := run.Opt
		opt.Observer = m
		res, err := slotsim.Run(run.Scheme, opt)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		rep := slotsim.BuildReport(run.Scheme, opt, res, m, 0)
		slots := len(m.SlotSeries())
		wantMax, wantTotal := make([]int, slots), make([]int, slots)
		paired, clamped := occupancy(opt.Arrivals, res, slots, func(id int, occ []int) {
			for t, v := range occ {
				wantTotal[t] += v
				wantMax[t] = max(wantMax[t], v)
			}
			if peak := slices.Max(occ); peak != res.MaxBuffer[id] {
				t.Errorf("%s: node %d: occupancy peaks at %d, engine MaxBuffer %d", c.name, id, peak, res.MaxBuffer[id])
			}
		})
		if !reflect.DeepEqual(rep.Series.BufferMax, wantMax) {
			t.Errorf("%s: buffer_max\n got %v\nwant %v", c.name, rep.Series.BufferMax, wantMax)
		}
		if !reflect.DeepEqual(rep.Series.BufferTotal, wantTotal) {
			t.Errorf("%s: buffer_total\n got %v\nwant %v", c.name, rep.Series.BufferTotal, wantTotal)
		}
		if got, want := slices.Max(rep.Series.BufferMax), res.WorstBuffer(); got != want {
			t.Errorf("%s: max(buffer_max) %d, WorstBuffer %d", c.name, got, want)
		}
		tot := m.Totals()
		sawDrop = sawDrop || tot.Drops > 0
		sawDup = sawDup || tot.Duplicates > 0
		sawPair = sawPair || paired > 0
		sawClamp = sawClamp || clamped > 0
	}
	if !sawDrop || !sawDup || !sawPair || !sawClamp {
		t.Fatalf("the runs must cover drops (%v), duplicates (%v), two arrivals in one slot (%v) and a clamped occupancy (%v)",
			sawDrop, sawDup, sawPair, sawClamp)
	}
}

// TestMetricsRetainsNoDeliveries: what a Metrics observer holds after a run
// grows with the run's slots and node ids, not with its deliveries. On the
// N = 2 000 multi-tree run, doubling the window doubles the deliveries but
// adds only the new slots' counters; a log of eight bytes per delivery would
// nearly double what the collector retains.
func TestMetricsRetainsNoDeliveries(t *testing.T) {
	retained := func(packets int) int64 {
		sc, err := spec.Parse(fmt.Sprintf("scheme multitree\nparam d=3 n=2000\npackets %d\n", packets))
		if err != nil {
			t.Fatal(err)
		}
		run, err := spec.Build(sc)
		if err != nil {
			t.Fatal(err)
		}
		m := obs.NewMetrics()
		opt := run.Opt
		opt.Observer = m
		// A Runner of its own, which nothing keeps past the run: the heap
		// with m alive and without it differ by m alone.
		if _, err := slotsim.NewRunner().Run(run.Scheme, opt); err != nil {
			t.Fatal(err)
		}
		var with, without runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&with)
		runtime.KeepAlive(m)
		runtime.GC()
		runtime.ReadMemStats(&without)
		return int64(with.HeapAlloc) - int64(without.HeapAlloc)
	}
	small, large := retained(100), retained(200)
	if small <= 0 || 2*large >= 3*small {
		t.Fatalf("Metrics retains %d bytes over a 100-packet window and %d over 200: it grows with the deliveries", small, large)
	}
}
