package spec

import (
	"testing"

	"streamcast/internal/core"
	"streamcast/internal/obs"
)

// countingScheme counts how often each slot of a periodic scheme is
// generated.
type countingScheme struct {
	core.PeriodicScheme
	calls map[core.Slot]int
}

func (c *countingScheme) Transmissions(t core.Slot) []core.Transmission {
	c.calls[t]++
	return c.PeriodicScheme.Transmissions(t)
}

func mustBuild(t *testing.T, text string) *Run {
	t.Helper()
	sc, err := Parse(text)
	if err != nil {
		t.Fatal(err)
	}
	run, err := Build(sc)
	if err != nil {
		t.Fatal(err)
	}
	return run
}

// TestRunScheduleShared: Preflight and Execute replay one schedule value.
// On a static periodic scenario that is one compiled snapshot — the scheme
// generates each slot of the compile window (W+P stored, P re-derived) once
// and nothing afterwards; a live topology and the non-periodic families get
// the scheme itself; and the run's result is the one the scheme produces
// when handed to the engine directly.
func TestRunScheduleShared(t *testing.T) {
	for _, text := range []string{
		"scheme hypercube\nparam d=1 n=255\ncheck\n",
		"scheme hypercube\nparam d=2 n=100\npackets 40\ncheck\n",
		"scheme multitree\nparam d=3 n=200\npackets 30\ncheck\n",
	} {
		run := mustBuild(t, text)
		src := run.Scheme.(core.PeriodicScheme)
		counter := &countingScheme{PeriodicScheme: src, calls: map[core.Slot]int{}}
		run.Scheme = counter
		compiled, ok := run.Schedule().(*core.CompiledScheme)
		if !ok {
			t.Fatalf("%q: Schedule() is %T, want a compiled snapshot", text, run.Schedule())
		}
		rep, err := run.Preflight()
		if err != nil || !rep.OK() {
			t.Fatalf("%q: preflight: %v %v", text, err, rep)
		}
		met := obs.NewMetrics()
		run.Opt.Observer = met
		res, err := run.Execute()
		if err != nil {
			t.Fatal(err)
		}
		if run.Schedule() != core.Scheme(compiled) {
			t.Errorf("%q: Schedule() changed across Preflight and Execute", text)
		}
		window := src.SteadyState() + 2*src.Period()
		if len(counter.calls) != int(window) {
			t.Errorf("%q: %d distinct slots generated, want the compile window's %d", text, len(counter.calls), window)
		}
		for slot, calls := range counter.calls {
			if calls != 1 || slot >= window {
				t.Errorf("%q: slot %d generated %d times (compile window is %d slots)", text, slot, calls, window)
			}
		}

		// runFingerprint hands run.Scheme to the engine: no Schedule().
		missing := 0
		for _, m := range res.Missing {
			missing += m
		}
		wantPrint, wantMissing := runFingerprint(t, run)
		if got := met.Fingerprint(); got != wantPrint || missing != wantMissing {
			t.Errorf("%q: fingerprint %s, %d missing through Schedule(); %s, %d on the scheme itself",
				text, got, missing, wantPrint, wantMissing)
		}
	}

	for _, text := range []string{
		"scheme multitree\nparam d=3 n=60\npackets 40\nchurn kind=poisson rate=1 seed=5 policy=lazy slots=8..\n",
		"scheme gossip\nparam n=40 d=2 degree=4\n",
		"scheme randreg\nparam n=40 degree=3 mode=pull seed=7\n",
	} {
		run := mustBuild(t, text)
		if got := run.Schedule(); got != run.Scheme {
			t.Errorf("%q: Schedule() is %T, want the scheme itself", text, got)
		}
		if _, err := run.Execute(); err != nil {
			t.Errorf("%q: %v", text, err)
		}
	}
}
