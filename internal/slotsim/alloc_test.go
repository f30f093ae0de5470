package slotsim_test

import (
	"testing"

	"streamcast/internal/core"
	"streamcast/internal/multitree"
	"streamcast/internal/slotsim"
)

// steadyCase builds a multitree scheme with a horizon long enough to compile
// and to exercise several steady-state periods.
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
// warmed Runner, running the same compiled scheme over a longer horizon must
// cost exactly as many allocations as the shorter one — i.e. the extra slots
// allocate nothing. The fixed per-run cost is the returned Result and its
// three per-node slices: a cell-free run's finish reads its window from the
// Runner's bits and allocates nothing else.
func TestSteadyStateAllocFree(t *testing.T) {
	s, opt := steadyCase(t, 2000, 4)
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
		t.Errorf("64 extra slots cost %.0f allocations (%.0f vs %.0f): the per-slot path is not allocation-free", ext-base, ext, base)
	}
	if base > 4 {
		t.Errorf("a warmed cell-free run made %.0f allocations, want 4 (the Result and its three slices)", base)
	}
}
