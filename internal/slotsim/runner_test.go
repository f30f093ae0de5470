package slotsim_test

import (
	"reflect"
	"testing"

	"streamcast/internal/core"
	"streamcast/internal/multitree"
	"streamcast/internal/obs"
	"streamcast/internal/slotsim"
)

// outcome is what a run leaves behind — its Result and the window's arrival
// cells — so that "identical Results" in these tests means cell for cell.
type outcome struct {
	Res   *slotsim.Result
	Cells *slotsim.Arrivals
}

// runKeeping executes one run on r with the cells asked for.
func runKeeping(r *slotsim.Runner, s core.Scheme, opt slotsim.Options) (outcome, error) {
	opt.Arrivals = new(slotsim.Arrivals)
	res, err := r.Run(s, opt)
	return outcome{res, opt.Arrivals}, err
}

// observedRun executes one run with full observation attached.
func observedRun(s core.Scheme, opt slotsim.Options) (outcome, *obs.Recorder, *obs.Metrics, error) {
	rec, met := &obs.Recorder{}, obs.NewMetrics()
	opt.Observer = obs.Combine(rec, met)
	out, err := runKeeping(slotsim.NewRunner(), s, opt)
	return out, rec, met, err
}

// assertSameEvents requires two recorded event streams to be identical,
// reporting the first differing event.
func assertSameEvents(t *testing.T, name, labelA string, a *obs.Recorder, labelB string, b *obs.Recorder) {
	t.Helper()
	if reflect.DeepEqual(a.Events, b.Events) {
		return
	}
	la, lb := len(a.Events), len(b.Events)
	for i := 0; i < la && i < lb; i++ {
		if a.Events[i] != b.Events[i] {
			t.Fatalf("%s: event %d differs: %s %s, %s %s", name, i, labelA, a.Events[i], labelB, b.Events[i])
		}
	}
	t.Fatalf("%s: event streams differ in length: %s %d, %s %d", name, labelA, la, labelB, lb)
}

// multitreeCase builds a multitree scheme and a horizon spanning many
// schedule periods.
func multitreeCase(t *testing.T, n, d int, mode core.StreamMode) (core.Scheme, slotsim.Options) {
	t.Helper()
	m, err := multitree.New(n, d, multitree.Greedy)
	if err != nil {
		t.Fatal(err)
	}
	s := multitree.NewScheme(m, mode)
	win := core.Packet(4 * d)
	return s, slotsim.Options{
		Slots:   core.Slot(int(win)) + core.Slot(m.Height()*d+4*d+2),
		Packets: win,
		Mode:    mode,
	}
}

// TestRunnerReuse runs different schemes back to back through one Runner:
// scratch must never leak state across runs.
func TestRunnerReuse(t *testing.T) {
	r := slotsim.NewRunner()
	s1, opt1 := multitreeCase(t, 25, 3, core.PreRecorded)
	s2, opt2 := multitreeCase(t, 10, 2, core.Live)
	var first outcome
	for i := 0; i < 3; i++ {
		out1, err := runKeeping(r, s1, opt1)
		if err != nil {
			t.Fatal(err)
		}
		if first.Res == nil {
			first = out1
		} else if !reflect.DeepEqual(first, out1) {
			t.Fatalf("run %d: Result or cells drifted across Runner reuse", i)
		}
		if _, err := runKeeping(r, s2, opt2); err != nil {
			t.Fatal(err)
		}
	}
	// The first run's cells are its caller's: five later runs on the same
	// Runner, which compared equal above, must not have reached them.
	if first.Cells.At(1, 0) < 0 {
		t.Fatal("first run's cells were corrupted by later runs reusing scratch")
	}
}

// TestRunnerReuseAcrossSizes reuses one Runner across runs of very different
// node counts: growing then shrinking the node count must neither corrupt
// results (stale capacity tables, dirty arrival rows) nor cost allocations
// beyond each run's own fixed overhead once the scratch has grown to the
// larger size.
func TestRunnerReuseAcrossSizes(t *testing.T) {
	small, optS := multitreeCase(t, 10, 2, core.PreRecorded)
	big, optB := multitreeCase(t, 400, 4, core.PreRecorded)

	// Fresh-Runner references for both sizes.
	wantS, err := runKeeping(slotsim.NewRunner(), small, optS)
	if err != nil {
		t.Fatal(err)
	}
	wantB, err := runKeeping(slotsim.NewRunner(), big, optB)
	if err != nil {
		t.Fatal(err)
	}

	r := slotsim.NewRunner()
	for i := 0; i < 3; i++ {
		gotS, err := runKeeping(r, small, optS)
		if err != nil {
			t.Fatal(err)
		}
		gotB, err := runKeeping(r, big, optB)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(wantS, gotS) {
			t.Fatalf("round %d: small Result drifted after a large run shared the scratch", i)
		}
		if !reflect.DeepEqual(wantB, gotB) {
			t.Fatalf("round %d: large Result drifted after a small run shared the scratch", i)
		}
	}

	// Alloc differential: with the scratch warmed to the larger size,
	// alternating sizes must cost exactly what the two runs cost alone — a
	// per-run regrow would show up as extra allocations in the pair.
	soloS := testing.AllocsPerRun(5, func() {
		if _, err := r.Run(small, optS); err != nil {
			t.Fatal(err)
		}
	})
	soloB := testing.AllocsPerRun(5, func() {
		if _, err := r.Run(big, optB); err != nil {
			t.Fatal(err)
		}
	})
	pair := testing.AllocsPerRun(5, func() {
		if _, err := r.Run(small, optS); err != nil {
			t.Fatal(err)
		}
		if _, err := r.Run(big, optB); err != nil {
			t.Fatal(err)
		}
	})
	if pair > soloS+soloB {
		t.Errorf("alternating node counts costs %.0f allocations, the runs alone %.0f+%.0f: scratch is re-grown per run",
			pair, soloS, soloB)
	}
}
