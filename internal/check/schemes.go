package check

import (
	"streamcast/internal/analysis"
	"streamcast/internal/cluster"
	"streamcast/internal/core"
	"streamcast/internal/hypercube"
	"streamcast/internal/multitree"
)

// MultiTreeOptions derives the verification options for a multi-tree scheme:
// the Theorem 2 delay bound (plus the pipelining slack of the live variants),
// the Section 2.3 buffer bound, interior-disjointness at the tree degree, and
// the 2d neighbor bound (d parents, one tree's worth of children).
func MultiTreeOptions(s *multitree.Scheme, packets core.Packet) Options {
	n, d := s.Tree.N, s.Tree.D
	delay := core.Slot(analysis.Theorem2Bound(n, d))
	buffer := analysis.BufferBound(n, d)
	if s.Mode != core.PreRecorded {
		// Live pipelining (or the d-slot pre-buffer) shifts every tree by at
		// most d slots; the same slack the engine-level property tests use.
		delay += core.Slot(d)
		buffer += d
	}
	return Options{
		Horizon:      delay + core.Slot(int(packets)) + core.Slot(d) + 4,
		Packets:      packets,
		Mode:         s.Mode,
		TreeDegree:   d,
		MaxNeighbors: 2 * d,
		CheckMesh:    true,
		DelayBound:   delay,
		BufferBound:  buffer,
	}
}

// HypercubeOptions derives the verification options for a hypercube scheme:
// the Proposition 1/2 delay bound (longest per-group cube chain) and the
// 2-packet buffer bound. The k+1 neighbor bound only holds for a single
// unchained cube (N = 2^k − 1, d = 1); chained cubes add the freed-sender
// edges, so the degree audit is skipped there.
func HypercubeOptions(s *hypercube.Scheme, packets core.Packet) Options {
	var delay core.Slot
	dims := s.CubeDims()
	for _, chain := range dims {
		var sum core.Slot
		for _, k := range chain {
			sum += core.Slot(k)
		}
		if sum > delay {
			delay = sum
		}
	}
	maxNb := 0
	if len(dims) == 1 && len(dims[0]) == 1 {
		maxNb = dims[0][0] + 1
	}
	return Options{
		Horizon:      delay + core.Slot(int(packets)) + 4,
		Packets:      packets,
		Mode:         core.Live,
		MaxNeighbors: maxNb,
		CheckMesh:    true,
		DelayBound:   delay,
		BufferBound:  analysis.Proposition1Buffer(),
	}
}

// ClusterOptions derives the verification options for a multi-cluster scheme:
// the scheme's own capacity and Tc-latency configuration (so the holds pass
// checks Tc-consistency on the backbone), the Theorem 1 delay envelope, and
// the multi-tree audit with the super nodes and local roots exempted — they
// are infrastructure relays that legitimately forward every residue class.
func ClusterOptions(s *cluster.Scheme, packets core.Packet, extraSlots core.Slot) Options {
	base := s.Options(packets, extraSlots)
	cfg := s.Config()
	exempt := make(map[core.NodeID]bool, 2*cfg.K)
	for i := 0; i < cfg.K; i++ {
		exempt[s.SuperID(i)] = true
		exempt[s.LocalRootID(i)] = true
	}
	opt := Options{
		Horizon:    base.Slots,
		Packets:    packets,
		Mode:       base.Mode,
		SendCap:    base.SendCap,
		Inject:     base.Inject,
		TreeExempt: exempt,
		CheckMesh:  true,
	}
	depth := analysis.BackboneDepth(cfg.K, cfg.D)
	switch cfg.Intra {
	case cluster.MultiTree:
		h := 0
		for _, n := range s.Sizes() {
			if th := analysis.TreeHeight(n, cfg.Degree); th > h {
				h = th
			}
		}
		opt.TreeDegree = cfg.Degree
		// The same envelope the Theorem 1 shape test uses: the estimate plus
		// the per-hop store-and-forward slack and the live pipelining slack.
		opt.DelayBound = core.Slot(analysis.Theorem1Bound(cfg.K, cfg.D, int(cfg.Tc), 1, cfg.Degree, h)) +
			core.Slot(cfg.Degree) + 4
	case cluster.Hypercube:
		// Backbone propagation plus the longest intra-cluster cube chain.
		worst := 0
		for _, n := range s.Sizes() {
			sum := 0
			for _, k := range analysis.ChainDims(ceilDiv(n, cfg.Degree)) {
				sum += k
			}
			if sum > worst {
				worst = sum
			}
		}
		opt.DelayBound = cfg.Tc*core.Slot(depth) + core.Slot(worst) + core.Slot(cfg.Degree) + 4
	}
	return opt
}

// ceilDiv returns ⌈a/b⌉.
func ceilDiv(a, b int) int {
	return (a + b - 1) / b
}
