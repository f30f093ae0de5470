package spec

import (
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"streamcast/internal/core"
	"streamcast/internal/obs"
)

type invarianceCase struct {
	name  string
	build func() *Run
}

// invarianceScenarios is the list the metamorphic properties run over: every
// pinned corpus scenario, plus each family the sweeps lean on at two sizes.
// Each entry builds afresh per use — a live-churn run is single-shot, and the
// gossip families' schedules are simulation state.
func invarianceScenarios(t *testing.T) []invarianceCase {
	t.Helper()
	var out []invarianceCase
	paths, err := filepath.Glob(filepath.Join("testdata", "scenarios", "*.scn"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no corpus scenarios found (%v)", err)
	}
	for _, path := range paths {
		out = append(out, invarianceCase{"corpus/" + strings.TrimSuffix(filepath.Base(path), ".scn"), func() *Run {
			sc, err := Load(path)
			if err != nil {
				t.Fatal(err)
			}
			run, err := Build(sc)
			if err != nil {
				t.Fatal(err)
			}
			return run
		}})
	}
	for _, text := range []string{
		"scheme hypercube\nparam d=1 n=63\n",
		"scheme hypercube\nparam d=2 n=500\n",
		"scheme multitree\nparam d=3 n=40\n",
		"scheme multitree\nparam d=4 n=300\n",
		"scheme multitree\nparam d=3 n=40\nmode live\n",
		"scheme multitree\nparam d=4 n=300\nmode live\n",
		"scheme multitree\nparam d=3 n=60\nmode live\nchurn kind=poisson rate=0.5 seed=11 max=20 slots=10..60\n",
		"scheme randreg\nparam degree=3 mode=latin n=50 seed=3\n",
		"scheme randreg\nparam degree=4 mode=latin n=400 seed=4\n",
		"scheme randreg\nparam degree=3 mode=pull n=50 seed=3\n",
		"scheme randreg\nparam degree=4 mode=pull n=400 seed=4\n",
		"scheme randreg\nparam degree=3 mode=push n=50 seed=3\n",
		"scheme randreg\nparam degree=4 mode=push n=400 seed=4\n",
		"scheme gossip\nparam d=3 degree=4 n=60 seed=2\n",
		"scheme gossip\nparam d=2 degree=5 n=300 seed=9 strategy=pull-random\n",
	} {
		out = append(out, invarianceCase{strings.ReplaceAll(strings.TrimSpace(text), "\n", "; "), func() *Run { return mustBuild(t, text) }})
	}
	return out
}

// TestObserverAttachmentInvariance: attaching an observer that does nothing
// changes nothing a Result reports. The bare run ends when its window is
// complete; the observed one replays the whole horizon (slotsim.Options.Slots
// is an upper bound); both must agree on N, Packets, every ArrivalAt cell,
// StartDelay, MaxBuffer, Missing and SlotsUsed — reflect.DeepEqual on the two
// Results compares exactly those, the arrival matrix included.
//
// The observer also sees every delivery of the full-horizon run, which lets
// the test check against runs, not argument, the fact the engine's Live-mode
// matrix bound rests on: no Live run delivers a packet numbered Slots or more.
func TestObserverAttachmentInvariance(t *testing.T) {
	live := 0
	for _, c := range invarianceScenarios(t) {
		name := c.name
		bare, err := c.build().Execute()
		if err != nil {
			t.Fatalf("%s: bare run: %v", name, err)
		}
		run := c.build()
		top := core.Packet(-1)
		run.Opt.Observer = obs.Combine(run.Opt.Observer, obs.Funcs{
			OnDeliver: func(_ core.Slot, tx core.Transmission, _ bool) { top = max(top, tx.Packet) },
		})
		watched, err := run.Execute()
		if err != nil {
			t.Fatalf("%s: observed run: %v", name, err)
		}
		if !reflect.DeepEqual(bare, watched) {
			t.Errorf("%s: Result differs between a bare run and one with an idle observer (slots used %d vs %d, worst delay %d vs %d)",
				name, bare.SlotsUsed, watched.SlotsUsed, bare.WorstStartDelay(), watched.WorstStartDelay())
		}
		if top < 0 {
			t.Errorf("%s: the observer saw no delivery", name)
		}
		if run.Opt.Mode == core.Live {
			live++
			if int(top) >= int(run.Opt.Slots) {
				t.Errorf("%s: a Live run delivered packet %d inside a %d-slot horizon", name, top, run.Opt.Slots)
			}
		}
	}
	if live < 8 {
		t.Errorf("only %d Live runs in the list; the matrix-bound check needs the gossip, randreg and live multitree entries", live)
	}
}

// TestOversizedRunIsRefused: the two-line default gossip scenario at
// n=200000 asks for a 12n/d+100-slot horizon, hence a 596 GiB arrival matrix.
// It used to die in the allocator ("fatal error: out of memory", which no
// caller can catch); it must come back from Execute as a sized error, and
// promptly — nothing of the matrix is allocated first.
func TestOversizedRunIsRefused(t *testing.T) {
	run := mustBuild(t, "scheme gossip\nparam n=200000 d=3\n")
	start := time.Now()
	_, err := run.Execute()
	took := time.Since(start)
	if err == nil {
		t.Fatal("Execute accepted a 596 GiB arrival matrix")
	}
	for _, want := range []string{"arrival matrix too large", "N=200000 nodes", "packet rows", "GiB", "ceiling"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}
	if took > 2*time.Second {
		t.Errorf("refusal took %v", took)
	}
}
