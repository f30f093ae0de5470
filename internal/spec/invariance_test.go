package spec

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"streamcast/internal/core"
	"streamcast/internal/obs"
	"streamcast/internal/slotsim"
)

type invarianceCase struct {
	name string
	// build resolves the scenario afresh — a live-churn run is single-shot, and
	// the gossip families' schedules are simulation state — under the given
	// horizon, or its own when slots is 0.
	build func(slots core.Slot) *Run
}

// invarianceScenarios is the list the metamorphic properties run over: every
// pinned corpus scenario, plus each family the sweeps lean on at two sizes.
func invarianceScenarios(t *testing.T) []invarianceCase {
	t.Helper()
	var out []invarianceCase
	add := func(name string, load func() (*Scenario, error)) {
		out = append(out, invarianceCase{name, func(slots core.Slot) *Run {
			sc, err := load()
			if err != nil {
				t.Fatal(err)
			}
			if slots > 0 {
				sc.Slots = int(slots)
			}
			run, err := Build(sc)
			if err != nil {
				t.Fatal(err)
			}
			return run
		}})
	}
	paths, err := filepath.Glob(filepath.Join("testdata", "scenarios", "*.scn"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no corpus scenarios found (%v)", err)
	}
	for _, path := range paths {
		add("corpus/"+strings.TrimSuffix(filepath.Base(path), ".scn"), func() (*Scenario, error) { return Load(path) })
	}
	// The inline list lives in a file so that the oracle differential
	// (internal/integration) runs over the same fifteen.
	inline, err := os.ReadFile(filepath.Join("testdata", "inline.txt"))
	if err != nil {
		t.Fatal(err)
	}
	for _, text := range strings.Split(strings.TrimSpace(string(inline)), "\n\n") {
		add(strings.ReplaceAll(strings.TrimSpace(text), "\n", "; "), func() (*Scenario, error) { return Parse(text) })
	}
	return out
}

// outcome is what the properties compare: a run's Result and, so that "equal
// Results" keeps meaning cell for cell, the window's arrivals.
type outcome struct {
	Res   *slotsim.Result
	Cells *slotsim.Arrivals
}

// sansCert is o with its Result's certificate fields cleared: a bare run of a
// periodic scheme may stop at a certificate (slotsim.Result.CertPeriod), an
// observed one never does, and every other field and cell must agree.
func sansCert(o outcome) outcome {
	r := *o.Res
	r.CertSlot, r.CertPeriod = 0, 0
	return outcome{&r, o.Cells}
}

// arrivalRows is every node's row of o's arrival record: what the record
// holds, whatever the cell width its run's horizon gave it.
func arrivalRows(o outcome) [][]core.Slot {
	rows := make([][]core.Slot, o.Res.N+1)
	for id := range rows {
		rows[id] = o.Cells.Row(core.NodeID(id))
	}
	return rows
}

// executeKeeping executes the run with its arrival cells asked for, as
// live-churn and mdc runs ask already, under one more observer when given.
func executeKeeping(run *Run, observer obs.Observer) (outcome, error) {
	if run.Opt.Arrivals == nil {
		run.Opt.Arrivals = new(slotsim.Arrivals)
	}
	res, err := run.Execute(observer)
	return outcome{res, run.Opt.Arrivals}, err
}

// TestObserverAttachmentInvariance: attaching an observer that does nothing
// changes nothing a run reports. The bare run ends when its window is
// complete; the observed one replays the whole horizon (slotsim.Options.Slots
// is an upper bound); both must agree on N, Packets, StartDelay, MaxBuffer,
// Missing, SlotsUsed and every arrival cell — reflect.DeepEqual on the two
// Results, the bare one's certificate fields cleared, and on the two Arrivals
// compares exactly those. A bare periodic run that stopped at a certificate
// filled the rest of its cells from it, so this also holds the extrapolated
// cells to the slot-by-slot ones.
//
// The observer also sees every delivery of the full-horizon run, which lets
// the test check against runs, not argument, the fact the engine's Live-mode
// matrix bound rests on: no Live run delivers a packet numbered Slots or more.
func TestObserverAttachmentInvariance(t *testing.T) {
	live := 0
	for _, c := range invarianceScenarios(t) {
		name := c.name
		bare, err := executeKeeping(c.build(0), nil)
		if err != nil {
			t.Fatalf("%s: bare run: %v", name, err)
		}
		run := c.build(0)
		top := core.Packet(-1)
		watched, err := executeKeeping(run, obs.SlotFunc(func(v *obs.SlotView) {
			for _, tx := range v.Arrivals {
				top = max(top, tx.Packet)
			}
		}))
		if err != nil {
			t.Fatalf("%s: observed run: %v", name, err)
		}
		if !reflect.DeepEqual(sansCert(bare), watched) {
			t.Errorf("%s: Result or cells differ between a bare run and one with an idle observer (slots used %d vs %d, worst delay %d vs %d)",
				name, bare.Res.SlotsUsed, watched.Res.SlotsUsed, bare.Res.WorstStartDelay(), watched.Res.WorstStartDelay())
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

// TestCellRequestInvariance: whether a run keeps its arrival cells changes
// nothing it computes — not a StartDelay, MaxBuffer, Missing or SlotsUsed, bare
// or observed, and not the observed run's Metrics fingerprint. The engine
// fills the record beside its ledger and never reads it.
func TestCellRequestInvariance(t *testing.T) {
	for _, c := range invarianceScenarios(t) {
		for _, observed := range []bool{false, true} {
			exec := func(keep bool) (*slotsim.Result, string) {
				run := c.build(0)
				run.Opt.Arrivals = nil // live-churn and mdc runs ask by default
				if keep {
					run.Opt.Arrivals = new(slotsim.Arrivals)
				}
				var met *obs.Metrics
				var o obs.Observer
				if observed {
					met = obs.NewMetrics()
					o = met
				}
				res, err := run.Execute(o)
				if err != nil {
					t.Fatalf("%s (observed %v, cells %v): %v", c.name, observed, keep, err)
				}
				if met == nil {
					return res, ""
				}
				return res, met.Fingerprint()
			}
			without, fpWithout := exec(false)
			with, fpWith := exec(true)
			if !reflect.DeepEqual(without, with) {
				t.Errorf("%s (observed %v): Result differs when the run keeps its cells", c.name, observed)
			}
			if fpWithout != fpWith {
				t.Errorf("%s: fingerprint %s without cells, %s with", c.name, fpWithout, fpWith)
			}
		}
	}
}

// TestPrefixStability: T slots are a prefix of T+k. When every receiver holds
// the whole window by the end of slot T−1, a horizon of T, T+1, T+64 or T+65
// slots gives the same Result and the same cells, bare — where the stop rule
// leaves at T whatever the horizon — and observed, where every slot of the
// horizon runs (the cells read back by row, since a horizon past 255 slots
// stores them wider). This is the property the stop rule rests on (TestStopRule
// pins it on hand cases). A scenario whose window never completes has no such
// T and is skipped — the faulted and the two churned entries (a joiner's id
// misses what was sent before it joined) and randreg latin at n=400, whose
// digraph leaves receivers short — and 22 of the 26 remain; none breaks it.
func TestPrefixStability(t *testing.T) {
	checked := 0
	for _, c := range invarianceScenarios(t) {
		full, err := executeKeeping(c.build(0), nil)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		complete := true
		for _, miss := range full.Res.Missing[1:] {
			complete = complete && miss == 0
		}
		if !complete {
			continue
		}
		checked++
		T := full.Res.SlotsUsed
		for _, k := range []core.Slot{0, 1, 64, 65} {
			for _, observed := range []bool{false, true} {
				var watcher obs.Observer
				if observed {
					watcher = obs.SlotFunc(func(*obs.SlotView) {})
				}
				got, err := executeKeeping(c.build(T+k), watcher)
				if err != nil {
					t.Errorf("%s: horizon T+%d = %d (observed %v): %v", c.name, k, T+k, observed, err)
					continue
				}
				if !reflect.DeepEqual(sansCert(full).Res, sansCert(got).Res) || !reflect.DeepEqual(arrivalRows(full), arrivalRows(got)) {
					t.Errorf("%s: horizon T+%d = %d (observed %v) gives a different Result or cells than the scenario's own horizon (slots used %d vs %d, worst delay %d vs %d)",
						c.name, k, T+k, observed, got.Res.SlotsUsed, full.Res.SlotsUsed, got.Res.WorstStartDelay(), full.Res.WorstStartDelay())
				}
			}
		}
	}
	if checked < 20 {
		t.Errorf("only %d scenarios complete their window; the property needs the static families", checked)
	}
}

// TestOversizedRunIsRefused: the two-line default gossip scenario at
// n=200000 asks for a 12n/d+100-slot horizon, hence a 596 GiB arrival matrix.
// It used to die in the allocator ("fatal error: out of memory", which no
// caller can catch); it must come back from Execute as a sized error, and
// promptly — nothing of the matrix is allocated first.
func TestOversizedRunIsRefused(t *testing.T) {
	sc, err := Parse("scheme gossip\nparam n=200000 d=3\n")
	if err != nil {
		t.Fatal(err)
	}
	run, err := Build(sc)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	_, err = run.Execute(nil)
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
