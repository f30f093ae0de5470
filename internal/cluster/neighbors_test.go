package cluster_test

import (
	"testing"

	"streamcast/internal/check"
	"streamcast/internal/cluster"
	"streamcast/internal/core"
)

// TestClusterNeighborsConsistent: declared neighbor sets cover the
// backbone, the S_i→S'_i links, and the remapped intra-cluster edges for
// both intra kinds.
func TestClusterNeighborsConsistent(t *testing.T) {
	for _, intra := range []cluster.IntraKind{cluster.MultiTree, cluster.Hypercube} {
		s, err := cluster.New(cluster.Config{
			K: 7, D: 3, Tc: 4, ClusterSize: 9, Degree: 2, Intra: intra,
		})
		if err != nil {
			t.Fatal(err)
		}
		// The static verifier's mesh audit over the scheme's own run: every
		// edge the run uses must be declared at both listed ends.
		opt := s.Options(8, 120)
		opt.AllowIncomplete = true
		rep, err := check.Static(s, check.Options{Run: opt})
		if err != nil {
			t.Fatal(err)
		}
		if err := rep.Err(); err != nil {
			t.Errorf("%s: %v", intra, err)
		}
		nb := s.Neighbors()
		// S_1's backbone set includes the source, its children, S'_1.
		set := map[core.NodeID]bool{}
		for _, x := range nb[s.SuperID(0)] {
			set[x] = true
		}
		if !set[core.SourceID] {
			t.Errorf("%s: S_1 missing source neighbor", intra)
		}
		if !set[s.LocalRootID(0)] {
			t.Errorf("%s: S_1 missing S'_1 neighbor", intra)
		}
		if !set[s.SuperID(3)] || !set[s.SuperID(4)] {
			t.Errorf("%s: S_1 missing backbone children", intra)
		}
	}
}
