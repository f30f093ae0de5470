package spec

import (
	"fmt"

	"streamcast/internal/check"
	"streamcast/internal/cluster"
	"streamcast/internal/core"
	"streamcast/internal/multitree"
)

// clusterExtra is the family's horizon slack beyond the packet window,
// handed to cluster.Options (which adds the backbone shift itself).
func clusterExtra(d int) core.Slot { return core.Slot(40 + 8*d) }

func init() {
	register(&Family{
		Name: "cluster",
		Doc:  "multi-cluster backbone (Section 4): K clusters behind a D-ary super-node tree",
		Params: []Param{
			{Name: "k", Kind: Int, Def: "4", Min: 1, Doc: "number of clusters K"},
			{Name: "D", Kind: Int, Def: "3", Min: 1, Doc: "backbone degree D"},
			{Name: "tc", Kind: Int, Def: "5", Min: 2, Doc: "inter-cluster latency Tc in slots"},
			{Name: "n", Kind: Int, Def: "100", Min: 1, Doc: "receivers per cluster"},
			{Name: "d", Kind: Int, Def: "3", Min: 1, Doc: "intra-cluster degree d"},
			{Name: "construction", Kind: Enum, Def: "greedy", Enum: []string{"greedy", "structured"},
				Doc: "multi-tree construction (intra=multitree)"},
			{Name: "intra", Kind: Enum, Def: "multitree", Enum: []string{"multitree", "hypercube"},
				Doc: "intra-cluster scheme"},
		},
		Caps: Capabilities{StaticCheck: true},
		// The scheme manages its own mode: cluster.Options always runs
		// Live with the backbone's Tc latency map.
		Mode: OwnMode,
		defaultPackets: func(v Values) core.Packet {
			return core.Packet(3 * v.Int("d"))
		},
		build: func(in buildInput) (*buildOutput, error) {
			v := in.Values
			intra := cluster.MultiTree
			if v.Str("intra") == "hypercube" {
				intra = cluster.Hypercube
			}
			s, err := cluster.New(cluster.Config{
				K: v.Int("k"), D: v.Int("D"), Tc: core.Slot(v.Int("tc")),
				ClusterSize: v.Int("n"), Degree: v.Int("d"),
				Intra: intra, Construction: parseConstruction(v.Str("construction")),
			})
			if err != nil {
				return nil, err
			}
			// The check's Run is the run's engine options: cluster.Options
			// computes the full horizon (backbone shift + window + slack) and
			// the Tc latency/send-capacity maps once, for both.
			chk := check.ClusterOptions(s, in.Packets, clusterExtra(v.Int("d")))
			return &buildOutput{Scheme: s, Opt: chk.Run, Check: &chk}, nil
		},
	})
}

// ClusterScenario is a convenience constructor for cluster sweeps.
func ClusterScenario(k, D, tc, n, d int, c multitree.Construction) *Scenario {
	sc := &Scenario{Scheme: "cluster"}
	sc.setParam("k", fmt.Sprint(k))
	sc.setParam("D", fmt.Sprint(D))
	sc.setParam("tc", fmt.Sprint(tc))
	sc.setParam("n", fmt.Sprint(n))
	sc.setParam("d", fmt.Sprint(d))
	sc.setParam("construction", c.String())
	return sc
}
