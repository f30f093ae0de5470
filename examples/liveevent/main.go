// Live event broadcast across geographically distributed clusters — the
// Figure 1 scenario: a source streams a live event to K=9 clusters of
// receivers. Inter-cluster links cost Tc slots, intra-cluster links one
// slot; each cluster runs d interior-disjoint multi-trees below its local
// root S'_i. The example reports the per-cluster delay breakdown and
// compares the end-to-end worst case against Theorem 1.
package main

import (
	"fmt"
	"log"

	"streamcast/internal/analysis"
	"streamcast/internal/cluster"
	"streamcast/internal/core"
	"streamcast/internal/multitree"
	"streamcast/internal/spec"
	"streamcast/internal/trace"
)

func main() {
	cfg := cluster.Config{
		K:            9,  // clusters, e.g. metro areas
		D:            3,  // source / super node capacity
		Tc:           12, // cross-country link: 12 packet-slots
		ClusterSize:  25, // receivers per cluster
		Degree:       4,  // local root capacity d (Figure 1 uses d=4)
		Intra:        cluster.MultiTree,
		Construction: multitree.Greedy,
	}
	fmt.Print(trace.ClusterTree(cfg.K, cfg.D, cfg.Degree))
	fmt.Println()

	// The composed scheme comes out of the scheme registry, the same
	// construction path a `scheme cluster` scenario resolves.
	run, err := spec.Build(spec.ClusterScenario(cfg.K, cfg.D, int(cfg.Tc), cfg.ClusterSize, cfg.Degree, cfg.Construction))
	if err != nil {
		log.Fatal(err)
	}
	s := run.Scheme.(*cluster.Scheme)
	res, err := run.Execute(nil)
	if err != nil {
		log.Fatal(err)
	}
	worst, avg := s.ReceiverDelays(res)

	h := analysis.TreeHeight(cfg.ClusterSize, cfg.Degree)
	fmt.Printf("live stream to %d receivers in %d clusters (Tc=%d):\n",
		cfg.K*cfg.ClusterSize, cfg.K, cfg.Tc)
	fmt.Printf("  worst playback delay: %d slots\n", worst)
	fmt.Printf("  average playback delay: %.2f slots\n", avg)
	fmt.Printf("  Theorem 1 estimate: Tc*log_{D-1}K + d(h-1) = %d slots\n",
		analysis.Theorem1Bound(cfg.K, cfg.D, int(cfg.Tc), 1, cfg.Degree, h))
	fmt.Println()

	fmt.Println("per-cluster breakdown (worst receiver in each cluster):")
	for i := 0; i < cfg.K; i++ {
		var w core.Slot
		for v := 1; v <= cfg.ClusterSize; v++ {
			if dly := res.StartDelay[s.ReceiverID(i, core.NodeID(v))]; dly > w {
				w = dly
			}
		}
		fmt.Printf("  cluster %d: worst delay %3d slots (super node S_%d delay %d)\n",
			i+1, w, i+1, res.StartDelay[s.SuperID(i)])
	}
}
