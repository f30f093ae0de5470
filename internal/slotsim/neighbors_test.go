package slotsim_test

import (
	"testing"

	"streamcast/internal/check"
	"streamcast/internal/core"
	"streamcast/internal/gossip"
	"streamcast/internal/multitree"
	"streamcast/internal/spec"
)

// TestDeclaredNeighborsCoverActualPartners validates, for every scheme
// family, that the declared protocol neighbor sets (the quantity the paper
// bounds) cover every partner the engine run actually uses — the single-
// receiver corners included, where the source is the only partner. The
// audit is the static verifier's with only its mesh check on, so a clean
// report also means no slot-model violation cut the audited run short.
func TestDeclaredNeighborsCoverActualPartners(t *testing.T) {
	singleTree := spec.SingleTreeScenario(15, 2)
	singleTree.Mode = "live"
	for _, c := range []struct {
		name string
		sc   *spec.Scenario
	}{
		{"multitree N=37 structured", spec.MultiTreeScenario(37, 3, multitree.Structured, core.PreRecorded)},
		{"multitree N=37 greedy", spec.MultiTreeScenario(37, 3, multitree.Greedy, core.PreRecorded)},
		{"N=1 multitree", spec.MultiTreeScenario(1, 2, multitree.Greedy, core.PreRecorded)},
		{"d=1 hypercube N=7", spec.HypercubeScenario(7, 1)},
		{"d=1 hypercube N=23", spec.HypercubeScenario(23, 1)},
		{"d=1 hypercube N=100", spec.HypercubeScenario(100, 1)},
		{"d=3 hypercube N=50", spec.HypercubeScenario(50, 3)},
		{"N=1 d=1 hypercube", spec.HypercubeScenario(1, 1)},
		{"chain N=15", spec.ChainScenario(15)},
		{"chain N=3", spec.ChainScenario(3)},
		{"N=1 chain", spec.ChainScenario(1)},
		{"single tree N=15", singleTree},
		{"gossip pull-oldest", spec.GossipScenario(25, 2, 4, gossip.PullOldest, 13)},
		{"cluster", spec.ClusterScenario(5, 3, 3, 8, 2, multitree.Greedy)},
	} {
		t.Run(c.name, func(t *testing.T) {
			run, err := spec.Build(c.sc)
			if err != nil {
				t.Fatal(err)
			}
			opt := run.Opt
			opt.AllowIncomplete = true
			rep, err := check.Static(run.Scheme, check.Options{Run: opt})
			if err != nil {
				t.Fatal(err)
			}
			if err := rep.Err(); err != nil {
				t.Error(err)
			}
		})
	}
}
