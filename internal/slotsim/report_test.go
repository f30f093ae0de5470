package slotsim_test

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"streamcast/internal/core"
	"streamcast/internal/multitree"
	"streamcast/internal/obs"
	"streamcast/internal/slotsim"
	"streamcast/internal/spec"
)

// TestBuildReportTable1Config: the report built for the Table 1 N=15,
// d=3 multi-tree configuration must reproduce the paper's buffer number
// (max buffer 3, see results/table1.csv) both in the aggregate and as the
// maximum of the per-slot buffer-occupancy series.
func TestBuildReportTable1Config(t *testing.T) {
	m, err := multitree.New(15, 3, multitree.Greedy)
	if err != nil {
		t.Fatal(err)
	}
	scheme := multitree.NewScheme(m, core.Live)
	met := obs.NewMetrics()
	opt := slotsim.Options{Slots: 35, Packets: 12, Mode: core.Live, Observer: met, Arrivals: new(slotsim.Arrivals)}
	res, err := slotsim.Run(scheme, opt)
	if err != nil {
		t.Fatal(err)
	}
	rep := slotsim.BuildReport(scheme, opt, res, met, 0)

	if rep.Aggregates.WorstBufferPkts != 3 {
		t.Errorf("worst buffer %d, want 3 (results/table1.csv, N=15 multi-tree)", rep.Aggregates.WorstBufferPkts)
	}
	maxSeries := 0
	for _, v := range rep.Series.BufferMax {
		if v > maxSeries {
			maxSeries = v
		}
	}
	if maxSeries != rep.Aggregates.WorstBufferPkts {
		t.Errorf("buffer_max series peaks at %d, aggregates say %d", maxSeries, rep.Aggregates.WorstBufferPkts)
	}

	if rep.Fingerprint == "" || !strings.HasPrefix(rep.Fingerprint, "fnv1a:") {
		t.Errorf("fingerprint %q", rep.Fingerprint)
	}
	if len(rep.Series.Scheduled) != len(rep.Series.BufferMax) {
		t.Errorf("series lengths differ: %d vs %d", len(rep.Series.Scheduled), len(rep.Series.BufferMax))
	}
	if rep.PerNode.StartDelay[0] != 0 || len(rep.PerNode.StartDelay) != res.N+1 {
		t.Errorf("per-node start delays %v", rep.PerNode.StartDelay)
	}

	// Round trip through JSON.
	var buf strings.Builder
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := obs.ReadReport(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if back.Aggregates != rep.Aggregates {
		t.Errorf("aggregates changed across JSON round trip: %+v vs %+v", back.Aggregates, rep.Aggregates)
	}
}

// TestBuildReportNeedsRecord: the buffer series are folded from the run's
// arrival record, so a report of a run that kept none is a caller bug that
// panics, never a report whose series are silently empty.
func TestBuildReportNeedsRecord(t *testing.T) {
	m, err := multitree.New(15, 3, multitree.Greedy)
	if err != nil {
		t.Fatal(err)
	}
	scheme := multitree.NewScheme(m, core.Live)
	met := obs.NewMetrics()
	opt := slotsim.Options{Slots: 35, Packets: 12, Mode: core.Live, Observer: met}
	res, err := slotsim.Run(scheme, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		switch r := recover(); {
		case r == nil:
			t.Fatal("BuildReport of a run without Options.Arrivals returned instead of panicking")
		case !strings.Contains(fmt.Sprint(r), "Options.Arrivals was nil"):
			t.Fatalf("BuildReport panicked with %v, not its own message", r)
		}
	}()
	slotsim.BuildReport(scheme, opt, res, met, 0)
}

// TestBuildReportMemory: building the report of an N = 2 000 live-churn run
// over more than 200 slots allocates under a quarter of 8·N·slots bytes. The
// buffer series are folded from the arrival record with O(window + slots)
// scratch; a nodes × slots matrix of ints, the way they were once derived,
// is at least 8·N·slots on its own.
func TestBuildReportMemory(t *testing.T) {
	const n = 2000
	plan := filepath.Join(t.TempDir(), "loss.plan")
	if err := os.WriteFile(plan, []byte("seed 7\nloss from=any to=any rate=0.02 slots=0..\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	sc, err := spec.Parse("scheme multitree\nparam d=3 n=2000\npackets 200\nfaults file=" + plan +
		"\nchurn kind=poisson rate=1 seed=3 policy=lazy slots=20..\n")
	if err != nil {
		t.Fatal(err)
	}
	run, err := spec.Build(sc)
	if err != nil {
		t.Fatal(err)
	}
	met := obs.NewMetrics()
	opt := run.Opt
	opt.Observer = met
	res, err := slotsim.Run(run.Scheme, opt)
	if err != nil {
		t.Fatal(err)
	}
	slots := len(met.SlotSeries())
	if slots < 200 {
		t.Fatalf("the run spans %d slots, want at least 200", slots)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rep := slotsim.BuildReport(run.Scheme, opt, res, met, 0)
	runtime.ReadMemStats(&after)
	if got, bound := after.TotalAlloc-before.TotalAlloc, uint64(8*n*slots/4); got >= bound {
		t.Fatalf("BuildReport allocated %d bytes, want under %d (a quarter of 8·N·slots at N=%d, %d slots)", got, bound, n, slots)
	}
	if len(rep.Series.BufferMax) != slots {
		t.Fatalf("buffer_max has %d slots, want %d", len(rep.Series.BufferMax), slots)
	}
}
