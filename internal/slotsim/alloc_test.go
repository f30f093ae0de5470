package slotsim_test

import (
	"testing"

	"streamcast/internal/core"
	"streamcast/internal/faults"
	"streamcast/internal/hypercube"
	"streamcast/internal/multitree"
	"streamcast/internal/obs"
	"streamcast/internal/slotsim"
)

// steadyCase builds a multitree scheme with a horizon long enough to exercise
// several steady-state periods.
func steadyCase(t *testing.T, n, d int) (core.Scheme, slotsim.Options) {
	t.Helper()
	m, err := multitree.New(n, d, multitree.Greedy)
	if err != nil {
		t.Fatal(err)
	}
	s := multitree.NewScheme(m, core.PreRecorded)
	win := core.Packet(2 * d)
	return s, slotsim.Options{
		Slots:   core.Slot(int(win) + m.Height()*d + 2*d + 2),
		Packets: win,
		Mode:    core.PreRecorded,
	}
}

// TestSteadyStateAllocFree pins the engine's zero-allocation hot path: on a
// warmed Runner, running the same scheme over a longer horizon must cost
// exactly as many allocations as the shorter one — i.e. the extra slots
// allocate nothing, in the engine or in the scheme's slot generation. The
// fixed per-run cost is the returned Result and its three per-node slices:
// finish reads its window from the Runner's slot bits and overflow entries and
// allocates nothing else. The rows cover the direct path (multi-tree), an
// observed chained hypercube, a DropFunc (losses through Inject), link latency
// (the in-flight ring, through Inject), a fault plan with loss and delay (the
// injector, plus the receive capacity its delay rules lift), and a receive
// capacity of 2, the last two on the same ledger as the rest.
func TestSteadyStateAllocFree(t *testing.T) {
	mt, mtOpt := steadyCase(t, 2000, 4)
	cube, err := hypercube.New(1000, 2)
	if err != nil {
		t.Fatal(err)
	}
	lossy := mtOpt
	lossy.AllowIncomplete, lossy.SkipUnavailable = true, true
	dropped, late := lossy, lossy
	dropped.Inject = slotsim.DropFunc(func(tx core.Transmission, _ core.Slot) bool { return (int(tx.To)+int(tx.Packet))%7 == 0 })
	late.Inject = slotsim.LatencyFunc(func(core.NodeID, core.NodeID) core.Slot { return 2 })
	plan, err := faults.ParsePlan("seed 5\nloss from=any to=any rate=0.05 slots=0..\n" +
		"delay from=any to=any extra=2 rate=0.2 slots=0..\n")
	if err != nil {
		t.Fatal(err)
	}
	in, err := faults.NewInjector(plan)
	if err != nil {
		t.Fatal(err)
	}
	wide := mtOpt
	wide.RecvCap = func(core.NodeID) int { return 2 }
	for _, c := range []struct {
		name string
		s    core.Scheme
		opt  slotsim.Options
	}{
		{"direct", mt, mtOpt},
		// An idle observer makes the run replay its whole horizon instead of
		// stopping once the window is complete, so the 64 extra slots run.
		{"observed", cube, slotsim.Options{Slots: 100, Packets: 8, Mode: core.Live, Observer: obs.SlotFunc(func(*obs.SlotView) {})}},
		{"drop", mt, dropped},
		{"latency", mt, late},
		{"inject", mt, in.Apply(mtOpt)},
		{"recvcap", mt, wide},
	} {
		steadyAllocFree(t, c.name, c.s, c.opt)
	}
}

func steadyAllocFree(t *testing.T, name string, s core.Scheme, opt slotsim.Options) {
	t.Helper()
	long := opt
	long.Slots += 64
	r := slotsim.NewRunner()
	if _, err := r.Run(s, opt); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(s, long); err != nil {
		t.Fatal(err)
	}
	base := testing.AllocsPerRun(5, func() {
		if _, err := r.Run(s, opt); err != nil {
			t.Fatal(err)
		}
	})
	ext := testing.AllocsPerRun(5, func() {
		if _, err := r.Run(s, long); err != nil {
			t.Fatal(err)
		}
	})
	if ext > base {
		t.Errorf("%s: 64 extra slots cost %.0f allocations (%.0f vs %.0f): the per-slot path is not allocation-free", name, ext-base, ext, base)
	}
	if base != 4 {
		t.Errorf("%s: a warmed run made %.0f allocations, want 4 (the Result and its three slices)", name, base)
	}
}
