package obs_test

import (
	"io"
	"testing"

	"streamcast/internal/obs"
	"streamcast/internal/slotsim"
	"streamcast/internal/spec"
)

// TestObservedRunAllocs: a whole engine run with both sinks attached
// allocates for slice growth — O(log events) — and never per event. The
// N=2000 multitree run below fires about 136 000 events, so one allocation
// per event of any kind would overshoot the ceiling several hundred times.
func TestObservedRunAllocs(t *testing.T) {
	sc, err := spec.Parse("scheme multitree\nparam d=3 n=2000\npackets 9\n")
	if err != nil {
		t.Fatal(err)
	}
	run, err := spec.Build(sc)
	if err != nil {
		t.Fatal(err)
	}
	r := slotsim.NewRunner()
	events := 0
	allocs := testing.AllocsPerRun(3, func() {
		m, j := obs.NewMetrics(), obs.NewJSONLWriter(io.Discard)
		opt := run.Opt
		opt.Observer = obs.Combine(m, j)
		if _, err := r.Run(run.Scheme, opt); err != nil {
			t.Fatal(err)
		}
		if err := j.Flush(); err != nil {
			t.Fatal(err)
		}
		tot := m.Totals()
		events = tot.Transmits + tot.Delivers + 2*len(m.SlotSeries())
	})
	t.Logf("%d events, %v allocations", events, allocs)
	if events < 30000 {
		t.Fatalf("run fired only %d events; the ceiling below would prove nothing", events)
	}
	if allocs > 300 {
		t.Errorf("observed run allocates %v times for %d events, want at most 300", allocs, events)
	}
}
