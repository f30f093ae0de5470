package cluster

import (
	"testing"

	"streamcast/internal/analysis"
	"streamcast/internal/core"
	"streamcast/internal/multitree"
	"streamcast/internal/slotsim"
)

// simulate runs s on the engine over its own options and returns the result
// with the worst and average delay over the true receivers.
func simulate(t *testing.T, s *Scheme, packets core.Packet, extraSlots core.Slot) (*slotsim.Result, core.Slot, float64) {
	t.Helper()
	res, err := slotsim.Run(s, s.Options(packets, extraSlots))
	if err != nil {
		t.Fatal(err)
	}
	worst, avg := s.ReceiverDelays(res)
	return res, worst, avg
}

// TestBackboneParent checks the backbone tree shape: root degree D,
// interior degree D−1, BFS order.
func TestBackboneParent(t *testing.T) {
	// D=3: clusters 0,1,2 hang off the source; 3,4 off cluster 0; 5,6 off
	// cluster 1; 7,8 off cluster 2; 9,10 off cluster 3 …
	wants := []int{-1, -1, -1, 0, 0, 1, 1, 2, 2, 3, 3, 4}
	for i, want := range wants {
		if got := backboneParent(i, 3); got != want {
			t.Errorf("backboneParent(%d,3)=%d, want %d", i, got, want)
		}
	}
}

// TestEndToEndDelivery simulates the Figure 1 configuration (K=9 clusters,
// D=3, d=4) end to end under the model constraints.
func TestEndToEndDelivery(t *testing.T) {
	for _, intra := range []IntraKind{MultiTree, Hypercube} {
		s, err := New(Config{
			K: 9, D: 3, Tc: 5, ClusterSize: 20, Degree: 4, Intra: intra,
		})
		if err != nil {
			t.Fatal(err)
		}
		res, worst, avg := simulate(t, s, 12, 80)
		if res == nil || worst <= 0 || avg <= 0 {
			t.Fatalf("%s: degenerate result worst=%d avg=%.1f", intra, worst, avg)
		}
		// Receivers in root-level clusters must start earlier than the
		// worst receivers in leaf-level clusters (Tc dominates).
		first := res.StartDelay[s.ReceiverID(0, 1)]
		var lastWorst core.Slot
		for v := 1; v <= 20; v++ {
			if d := res.StartDelay[s.ReceiverID(8, core.NodeID(v))]; d > lastWorst {
				lastWorst = d
			}
		}
		if first >= lastWorst {
			t.Errorf("%s: depth-1 receiver delay %d not below depth-2 worst %d", intra, first, lastWorst)
		}
	}
}

// TestTheorem1Shape verifies that the measured worst-case delay grows with
// Tc at the backbone-depth rate and stays within a small constant of the
// Theorem 1 estimate.
func TestTheorem1Shape(t *testing.T) {
	n, d := 15, 3
	h := analysis.TreeHeight(n, d)
	for _, tc := range []core.Slot{2, 5, 10, 20} {
		s, err := New(Config{
			K: 9, D: 3, Tc: tc, ClusterSize: n, Degree: d,
			Intra: MultiTree, Construction: multitree.Greedy,
		})
		if err != nil {
			t.Fatal(err)
		}
		_, worst, _ := simulate(t, s, 3*core.Packet(d), core.Slot(h*d)+6*core.Slot(d))
		// Theorem 1: Tc·log_{D-1}K + Ti·d(h−1). Allow the +1-per-hop
		// store-and-forward slack and the intra full h·d term.
		bound := core.Slot(analysis.Theorem1Bound(9, 3, int(tc), 1, d, h)) +
			core.Slot(d) + 4
		if worst > bound {
			t.Errorf("Tc=%d: worst delay %d above Theorem 1 envelope %d", tc, worst, bound)
		}
		// Delay must be at least the backbone propagation to depth 2.
		if worst < 2*tc {
			t.Errorf("Tc=%d: worst delay %d below backbone floor %d", tc, worst, 2*tc)
		}
	}
}

// TestSendCapAndLatency sanity-checks the capacity/latency helpers.
func TestSendCapAndLatency(t *testing.T) {
	s, err := New(Config{K: 4, D: 3, Tc: 7, ClusterSize: 5, Degree: 2, Intra: MultiTree})
	if err != nil {
		t.Fatal(err)
	}
	if got := s.SendCap(core.SourceID); got != 3 {
		t.Errorf("source cap %d, want 3", got)
	}
	if got := s.SendCap(s.SuperID(2)); got != 3 {
		t.Errorf("S_2 cap %d, want 3", got)
	}
	if got := s.SendCap(s.LocalRootID(2)); got != 2 {
		t.Errorf("S'_2 cap %d, want 2", got)
	}
	if got := s.SendCap(s.ReceiverID(2, 3)); got != 1 {
		t.Errorf("receiver cap %d, want 1", got)
	}
	if got := s.Latency(core.SourceID, s.SuperID(0)); got != 7 {
		t.Errorf("S->S_0 latency %d, want 7", got)
	}
	if got := s.Latency(s.SuperID(0), s.SuperID(3)); got != 7 {
		t.Errorf("S_0->S_3 latency %d, want 7", got)
	}
	if got := s.Latency(s.SuperID(0), s.LocalRootID(0)); got != 1 {
		t.Errorf("S_0->S'_0 latency %d, want 1", got)
	}
	if got := s.Latency(s.ReceiverID(1, 1), s.ReceiverID(1, 2)); got != 1 {
		t.Errorf("intra latency %d, want 1", got)
	}
}

// TestHeterogeneousClusterSizes: the paper only bounds each cluster by N;
// per-cluster sizes must stream end to end with correct id bookkeeping.
func TestHeterogeneousClusterSizes(t *testing.T) {
	sizes := []int{5, 30, 1, 12}
	s, err := New(Config{
		K: 4, D: 3, Tc: 3, ClusterSizes: sizes, Degree: 2, Intra: MultiTree,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(s.ReceiverIDs()); got != 48 {
		t.Fatalf("receivers %d, want 48", got)
	}
	// Id layout: blocks are consecutive and disjoint.
	want := core.NodeID(1)
	for i, n := range sizes {
		if s.SuperID(i) != want {
			t.Errorf("S_%d id %d, want %d", i, s.SuperID(i), want)
		}
		if s.LocalRootID(i) != want+1 {
			t.Errorf("S'_%d id %d, want %d", i, s.LocalRootID(i), want+1)
		}
		want += core.NodeID(2 + n)
	}
	res, worst, avg := simulate(t, s, 8, 60)
	if res == nil || worst <= 0 || avg <= 0 {
		t.Fatalf("degenerate result: worst=%d avg=%.2f", worst, avg)
	}
	// The size-1 cluster's lone receiver is fed directly by S'_2.
	if d := res.StartDelay[s.ReceiverID(2, 1)]; d < 3 {
		t.Errorf("cluster-2 receiver delay %d below backbone floor", d)
	}
	if _, err := New(Config{K: 2, D: 3, Tc: 1, ClusterSizes: []int{3}, Degree: 2}); err == nil {
		t.Error("mismatched ClusterSizes length accepted")
	}
	if _, err := New(Config{K: 2, D: 3, Tc: 1, ClusterSizes: []int{3, 0}, Degree: 2}); err == nil {
		t.Error("zero cluster size accepted")
	}
}

// TestSingleCluster checks the degenerate K=1 case.
func TestSingleCluster(t *testing.T) {
	s, err := New(Config{K: 1, D: 3, Tc: 4, ClusterSize: 10, Degree: 2, Intra: MultiTree})
	if err != nil {
		t.Fatal(err)
	}
	_, worst, _ := simulate(t, s, 8, 40)
	if worst < 4 {
		t.Errorf("worst %d below single Tc hop", worst)
	}
}

// TestConfigValidation exercises constructor error paths.
func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{K: 0, D: 3, Tc: 2, ClusterSize: 5, Degree: 2},
		{K: 2, D: 2, Tc: 2, ClusterSize: 5, Degree: 2},
		{K: 2, D: 3, Tc: 0, ClusterSize: 5, Degree: 2},
		{K: 2, D: 3, Tc: 2, ClusterSize: 0, Degree: 2},
		{K: 2, D: 3, Tc: 2, ClusterSize: 5, Degree: 0},
	}
	for i, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
}

// TestHypercubeIntraEndToEnd gives the hypercube intra path a deeper
// workout with heterogeneous sizes.
func TestHypercubeIntraEndToEnd(t *testing.T) {
	s, err := New(Config{
		K: 4, D: 3, Tc: 6, ClusterSizes: []int{3, 17, 8, 25}, Degree: 1,
		Intra: Hypercube,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, worst, avg := simulate(t, s, 8, 90)
	if worst < 6 || avg <= 0 {
		t.Errorf("degenerate: worst=%d avg=%.2f", worst, avg)
	}
	// Hypercube receivers keep the 2-packet buffer even behind the
	// backbone.
	for _, id := range s.ReceiverIDs() {
		if b := res.MaxBuffer[id]; b > 2 {
			t.Errorf("receiver %d buffer %d > 2", id, b)
		}
	}
}

// TestIntraKindString covers the stringer.
func TestIntraKindString(t *testing.T) {
	if MultiTree.String() != "multitree" || Hypercube.String() != "hypercube" {
		t.Error("IntraKind.String broken")
	}
}
