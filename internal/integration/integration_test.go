package integration

import (
	"fmt"
	"testing"

	"streamcast/internal/analysis"
	"streamcast/internal/check"
	"streamcast/internal/core"
	"streamcast/internal/gossip"
	"streamcast/internal/hypercube"
	"streamcast/internal/multitree"
	"streamcast/internal/obs"
	"streamcast/internal/slotsim"
	"streamcast/internal/spec"
)

// fixture bundles a scheme with a sufficient simulation horizon.
type fixture struct {
	scheme  core.Scheme
	slots   core.Slot
	packets core.Packet
	mode    core.StreamMode
}

// build resolves one scenario through the scheme registry into a fixture,
// adopting the registry's horizon for the scenario's window.
func build(t *testing.T, sc *spec.Scenario) fixture {
	t.Helper()
	run, err := spec.Build(sc)
	if err != nil {
		t.Fatalf("%+v: %v", sc, err)
	}
	return fixture{
		scheme:  run.Scheme,
		slots:   run.Opt.Slots,
		packets: run.Opt.Packets,
		mode:    run.Opt.Mode,
	}
}

// matrixScenarios is the scheme test matrix: both multi-tree constructions
// in both modes at three sizes, four hypercube shapes, and a live chain.
func matrixScenarios() []*spec.Scenario {
	var scs []*spec.Scenario
	for _, c := range []multitree.Construction{multitree.Structured, multitree.Greedy} {
		for _, tc := range []struct{ n, d int }{{9, 2}, {26, 3}, {64, 4}} {
			for _, mode := range []core.StreamMode{core.PreRecorded, core.Live} {
				sc := spec.MultiTreeScenario(tc.n, tc.d, c, mode)
				sc.Packets = 3 * tc.d
				scs = append(scs, sc)
			}
		}
	}
	for _, tc := range []struct{ n, d int }{{7, 1}, {31, 1}, {44, 1}, {60, 3}} {
		sc := spec.HypercubeScenario(tc.n, tc.d)
		sc.Packets = 8
		scs = append(scs, sc)
	}
	ch := spec.ChainScenario(18)
	ch.Mode = "live"
	ch.Packets = 6
	return append(scs, ch)
}

// matrix builds the full scheme test matrix through the registry.
func matrix(t *testing.T) []fixture {
	t.Helper()
	var fs []fixture
	for _, sc := range matrixScenarios() {
		fs = append(fs, build(t, sc))
	}
	return fs
}

// TestThreeEngineAgreement: the engine as a bare run (which stops once the
// window is complete), the engine observed (which replays every slot of the
// horizon), and the reference interpreter (oracle_test.go) agree on every
// node's Result and every arrival cell.
func TestThreeEngineAgreement(t *testing.T) {
	for _, f := range matrix(t) {
		t.Run(fmt.Sprintf("%s/%s", f.scheme.Name(), f.mode), func(t *testing.T) {
			opt := slotsim.Options{Slots: f.slots, Packets: f.packets, Mode: f.mode}
			want, cells, err := oracle(f.scheme, opt)
			if err != nil {
				t.Fatal(err)
			}
			for _, observer := range []obs.Observer{nil, obs.SlotFunc(func(*obs.SlotView) {})} {
				opt.Observer = observer
				opt.Arrivals = new(slotsim.Arrivals)
				got, err := slotsim.Run(f.scheme, opt)
				if err != nil {
					t.Fatal(err)
				}
				if diff := sameOutcome(got, opt.Arrivals, want, cells); diff != "" {
					t.Fatalf("observed=%v engine against the oracle: %s", observer != nil, diff)
				}
			}
		})
	}
}

// TestNeighborsCoverTrafficEverywhere applies the declared-vs-actual
// neighbor check across the whole matrix plus the gossip mesh: the static
// verifier with only its mesh audit on must find no scheduled edge missing
// from its EachNeighbors walk (and no slot-model violation cutting the run short).
func TestNeighborsCoverTrafficEverywhere(t *testing.T) {
	fs := matrix(t)
	fs = append(fs, build(t, spec.GossipScenario(30, 2, 4, gossip.PullRandom, 21)))
	for _, f := range fs {
		rep, err := check.Static(f.scheme, check.Options{Run: slotsim.Options{
			Slots: f.slots, Packets: f.packets, Mode: f.mode,
			AllowIncomplete: true,
		}})
		if err != nil {
			t.Fatalf("%s: %v", f.scheme.Name(), err)
		}
		if err := rep.Err(); err != nil {
			t.Error(err)
		}
	}
}

// TestBoundsHoldAcrossMatrix re-verifies the paper's QoS bounds on every
// matrix configuration.
func TestBoundsHoldAcrossMatrix(t *testing.T) {
	for _, f := range matrix(t) {
		res, err := slotsim.Run(f.scheme, slotsim.Options{
			Slots: f.slots, Packets: f.packets, Mode: f.mode,
		})
		if err != nil {
			t.Fatalf("%s: %v", f.scheme.Name(), err)
		}
		switch s := f.scheme.(type) {
		case *multitree.Scheme:
			bound := core.Slot(analysis.Theorem2Bound(s.Tree.N, s.Tree.D))
			extra := core.Slot(0)
			if f.mode == core.Live {
				extra = core.Slot(s.Tree.D) // pipelined live lags <= d
			}
			if res.WorstStartDelay() > bound+extra {
				t.Errorf("%s: worst %d above thm2 %d", s.Name(), res.WorstStartDelay(), bound+extra)
			}
		case *hypercube.Scheme:
			if res.WorstBuffer() > 2 {
				t.Errorf("%s: buffer %d > 2", s.Name(), res.WorstBuffer())
			}
		}
	}
}
