package slotsim_test

import (
	"reflect"
	"strings"
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

// runKeeping executes one run on r that keeps its record of arrivals.
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
// scratch must never leak state across runs, and a record a run filled for
// its caller must never be reached by the runs after it.
func TestRunnerReuse(t *testing.T) {
	r := slotsim.NewRunner()
	s1, opt1 := multitreeCase(t, 25, 3, core.PreRecorded)
	s2, opt2 := multitreeCase(t, 10, 2, core.Live)
	// Under a receive capacity of 2 a node may take two packets in one slot,
	// which the ledger would book as overflow entries on the Runner's scratch.
	wide := opt1
	wide.RecvCap = func(core.NodeID) int { return 2 }
	// Custom capacities the schedule breaks: each run must fail, and the
	// default run after it must not read its table (a cache of the default
	// tables that survived a custom run would fail that run too).
	starved := [2]slotsim.Options{opt1, opt1}
	starved[0].SendCap = func(core.NodeID) int { return 1 }
	starved[1].RecvCap = func(core.NodeID) int { return 0 }
	rows := func(a *slotsim.Arrivals, n int) [][]core.Slot {
		out := make([][]core.Slot, n+1)
		for id := range out {
			out[id] = a.Row(core.NodeID(id))
		}
		return out
	}
	var first outcome
	var kept [][]core.Slot
	for i := 0; i < 3; i++ {
		out1, err := runKeeping(r, s1, opt1)
		if err != nil {
			t.Fatal(err)
		}
		if first.Res == nil {
			first, kept = out1, rows(out1.Cells, out1.Res.N)
		} else if !reflect.DeepEqual(first, out1) {
			t.Fatalf("run %d: Result or cells drifted across Runner reuse", i)
		}
		if _, err := runKeeping(r, s2, opt2); err != nil {
			t.Fatal(err)
		}
		if _, err := r.Run(s1, wide); err != nil {
			t.Fatal(err)
		}
		for j, want := range []string{"send capacity exceeded", "receive capacity exceeded"} {
			_, err := r.Run(s1, starved[j])
			if err == nil || !strings.Contains(err.Error(), want) {
				t.Fatalf("run %d: custom capacity run: got %v, want %q", i, err, want)
			}
		}
	}
	// The first run's record is its caller's: the Runner never held it, so the
	// runs after it — five that filled records of their own, three under a
	// receive capacity of 2, six that failed — must not have reached it.
	if got := rows(first.Cells, first.Res.N); !reflect.DeepEqual(got, kept) {
		t.Fatal("first run's cells were changed by later runs on the same Runner")
	}
	if first.Cells.At(1, 0) < 0 {
		t.Fatal("first run's cells lost node 1's first packet")
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
