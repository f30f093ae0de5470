package cluster

import (
	"fmt"
	"slices"

	"streamcast/internal/core"
	"streamcast/internal/hypercube"
	"streamcast/internal/multitree"
	"streamcast/internal/slotsim"
)

// IntraKind selects the intra-cluster scheme.
type IntraKind int

const (
	// MultiTree uses d interior-disjoint trees below each S'_i.
	MultiTree IntraKind = iota
	// Hypercube uses chained-hypercube streaming below each S'_i.
	Hypercube
)

// String implements fmt.Stringer.
func (k IntraKind) String() string {
	if k == Hypercube {
		return "hypercube"
	}
	return "multitree"
}

// Config describes a multi-cluster deployment.
type Config struct {
	// K is the number of clusters.
	K int
	// D is the capacity of the source and of each S_i; the backbone tree
	// has root degree D and interior degree D−1. D >= 3 per the paper.
	D int
	// Tc is the inter-cluster transmission time in slots (Tc > 1).
	Tc core.Slot
	// ClusterSize is the number of receivers per cluster when ClusterSizes
	// is nil.
	ClusterSize int
	// ClusterSizes optionally gives a per-cluster receiver count (length
	// K); the paper only requires each cluster to have at most N nodes.
	ClusterSizes []int
	// Degree is d, the capacity of each S'_i (and the multi-tree degree).
	Degree int
	// Intra selects the intra-cluster scheme.
	Intra IntraKind
	// Construction selects the multi-tree construction (ignored for
	// hypercube).
	Construction multitree.Construction
}

// Scheme is the end-to-end multi-cluster streaming scheme. It implements
// core.Scheme over a global id space:
//
//	0                  source S
//	base(i)            S_i   (backbone super node of cluster i)
//	base(i)+1          S'_i  (local root of cluster i)
//	base(i)+2 ...      the cluster's receivers
type Scheme struct {
	cfg    Config
	sizes  []int         // receivers per cluster
	bases  []core.NodeID // global id of S_i
	inner  []core.Scheme // one per cluster, in local id space
	shift  []core.Slot   // global slot at which inner slot 0 occurs
	depth  []int         // backbone depth of S_i (hops from S)
	parent []int         // backbone parent cluster index, -1 = source
	total  int
	// whois[id] classifies every global id; cluster[id] is its cluster.
	whois   []nodeKind
	cluster []int
}

// nodeKind classifies a global id.
type nodeKind byte

const (
	kindSource nodeKind = iota
	kindSuper
	kindLocalRoot
	kindReceiver
)

var _ core.Scheme = (*Scheme)(nil)

// New builds the multi-cluster scheme.
func New(cfg Config) (*Scheme, error) {
	if cfg.K < 1 {
		return nil, fmt.Errorf("cluster: K must be >= 1, got %d", cfg.K)
	}
	if cfg.D < 3 {
		return nil, fmt.Errorf("cluster: D must be >= 3, got %d", cfg.D)
	}
	if cfg.Tc < 1 {
		return nil, fmt.Errorf("cluster: Tc must be >= 1, got %d", cfg.Tc)
	}
	if cfg.Degree < 1 {
		return nil, fmt.Errorf("cluster: degree must be >= 1, got %d", cfg.Degree)
	}
	sizes := cfg.ClusterSizes
	if sizes == nil {
		if cfg.ClusterSize < 1 {
			return nil, fmt.Errorf("cluster: ClusterSize must be >= 1, got %d", cfg.ClusterSize)
		}
		sizes = make([]int, cfg.K)
		for i := range sizes {
			sizes[i] = cfg.ClusterSize
		}
	}
	if len(sizes) != cfg.K {
		return nil, fmt.Errorf("cluster: ClusterSizes has %d entries, want K=%d", len(sizes), cfg.K)
	}
	s := &Scheme{
		cfg:    cfg,
		sizes:  sizes,
		bases:  make([]core.NodeID, cfg.K),
		inner:  make([]core.Scheme, cfg.K),
		shift:  make([]core.Slot, cfg.K),
		depth:  make([]int, cfg.K),
		parent: make([]int, cfg.K),
	}
	next := core.NodeID(1)
	for i, n := range sizes {
		if n < 1 {
			return nil, fmt.Errorf("cluster: cluster %d has size %d", i, n)
		}
		s.bases[i] = next
		next += core.NodeID(2 + n)
	}
	s.total = int(next) - 1
	s.whois = make([]nodeKind, s.total+1)
	s.cluster = make([]int, s.total+1)
	for i := 0; i < cfg.K; i++ {
		b := int(s.bases[i])
		s.whois[b] = kindSuper
		s.whois[b+1] = kindLocalRoot
		for v := 1; v <= sizes[i]; v++ {
			s.whois[b+1+v] = kindReceiver
		}
		for id := b; id <= b+1+sizes[i]; id++ {
			s.cluster[id] = i
		}
	}
	for i := 0; i < cfg.K; i++ {
		s.parent[i] = backboneParent(i, cfg.D)
		if s.parent[i] < 0 {
			s.depth[i] = 1
		} else {
			s.depth[i] = s.depth[s.parent[i]] + 1
		}
		// S'_i holds packet j from the end of slot j + depth·Tc, so the
		// intra-cluster schedule starts one slot later.
		s.shift[i] = core.Slot(s.depth[i])*cfg.Tc + 1

		switch cfg.Intra {
		case MultiTree:
			m, err := multitree.New(sizes[i], cfg.Degree, cfg.Construction)
			if err != nil {
				return nil, err
			}
			// Live mode: S'_i receives the stream progressively, exactly
			// like a live source producing one packet per slot.
			s.inner[i] = multitree.NewScheme(m, core.Live)
		case Hypercube:
			h, err := hypercube.New(sizes[i], cfg.Degree)
			if err != nil {
				return nil, err
			}
			s.inner[i] = h
		default:
			return nil, fmt.Errorf("cluster: unknown intra kind %d", int(cfg.Intra))
		}
	}
	return s, nil
}

// backboneParent returns the parent cluster index of cluster i in the
// backbone tree (clusters in BFS order; root S has D children, interior
// super nodes D−1), or −1 when the parent is the source.
func backboneParent(i, d int) int {
	if i < d {
		return -1
	}
	return (i - d) / (d - 1)
}

// base returns the global id of S_i.
func (s *Scheme) base(i int) core.NodeID {
	return s.bases[i]
}

// Config returns the configuration the scheme was built from.
func (s *Scheme) Config() Config { return s.cfg }

// Sizes returns the per-cluster receiver counts (a copy).
func (s *Scheme) Sizes() []int {
	out := make([]int, len(s.sizes))
	copy(out, s.sizes)
	return out
}

// SuperID returns the global id of S_i.
func (s *Scheme) SuperID(i int) core.NodeID { return s.base(i) }

// LocalRootID returns the global id of S'_i.
func (s *Scheme) LocalRootID(i int) core.NodeID { return s.base(i) + 1 }

// ReceiverID maps cluster i's local receiver id (1..ClusterSize) to the
// global id space.
func (s *Scheme) ReceiverID(i int, local core.NodeID) core.NodeID {
	return s.base(i) + 1 + local
}

// ReceiverIDs returns the global ids of all true receivers (excluding super
// nodes), for metric filtering.
func (s *Scheme) ReceiverIDs() []core.NodeID {
	out := make([]core.NodeID, 0, s.total)
	for i := 0; i < s.cfg.K; i++ {
		for v := 1; v <= s.sizes[i]; v++ {
			out = append(out, s.ReceiverID(i, core.NodeID(v)))
		}
	}
	return out
}

// isBackbone reports whether the id is the source or some S_i.
func (s *Scheme) isBackbone(id core.NodeID) bool {
	return id == core.SourceID || s.whois[id] == kindSuper
}

// Name implements core.Scheme.
func (s *Scheme) Name() string {
	return fmt.Sprintf("cluster(K=%d,D=%d,Tc=%d,%s)", s.cfg.K, s.cfg.D, s.cfg.Tc, s.cfg.Intra)
}

// NumReceivers implements core.Scheme: the total node count including super
// nodes (which also receive the full stream).
func (s *Scheme) NumReceivers() int { return s.total }

// SourceCapacity implements core.Scheme.
func (s *Scheme) SourceCapacity() int { return s.cfg.D }

// SendCap returns the per-node send capacity: D for the source and each
// S_i, d for each S'_i, 1 for receivers. Pass it to slotsim.Options.
func (s *Scheme) SendCap(id core.NodeID) int {
	switch s.whois[id] {
	case kindSource, kindSuper:
		return s.cfg.D
	case kindLocalRoot:
		return s.cfg.Degree
	default:
		return 1
	}
}

// Latency returns the link latency: Tc between backbone nodes (S and the
// S_i), one slot otherwise. Pass it to slotsim.Options.
func (s *Scheme) Latency(from, to core.NodeID) core.Slot {
	if s.isBackbone(from) && s.isBackbone(to) {
		return s.cfg.Tc
	}
	return 1
}

// Transmissions implements core.Scheme.
func (s *Scheme) Transmissions(t core.Slot) []core.Transmission {
	var out []core.Transmission
	// Backbone: S sends packet t to its root-level children every slot.
	for i := 0; i < s.cfg.K && i < s.cfg.D; i++ {
		out = append(out, core.Transmission{
			From: core.SourceID, To: s.SuperID(i), Packet: core.Packet(int(t)),
		})
	}
	for i := 0; i < s.cfg.K; i++ {
		// S_i holds packet p from the end of slot p + depth·Tc − 1 and
		// forwards it the next slot: to backbone children and to S'_i.
		p := core.Packet(int(t - core.Slot(s.depth[i])*s.cfg.Tc))
		if p >= 0 {
			for c := s.cfg.D + i*(s.cfg.D-1); c < s.cfg.D+(i+1)*(s.cfg.D-1) && c < s.cfg.K; c++ {
				out = append(out, core.Transmission{
					From: s.SuperID(i), To: s.SuperID(c), Packet: p,
				})
			}
			out = append(out, core.Transmission{
				From: s.SuperID(i), To: s.LocalRootID(i), Packet: p,
			})
		}
		// Intra-cluster schedule, shifted and remapped.
		tau := t - s.shift[i]
		if tau < 0 {
			continue
		}
		for _, tx := range s.inner[i].Transmissions(tau) {
			out = append(out, core.Transmission{
				From:   s.remap(i, tx.From),
				To:     s.remap(i, tx.To),
				Packet: tx.Packet,
			})
		}
	}
	return out
}

// remap converts a local intra-cluster id to the global id space.
func (s *Scheme) remap(i int, local core.NodeID) core.NodeID {
	if local == core.SourceID {
		return s.LocalRootID(i)
	}
	return s.ReceiverID(i, local)
}

// EachNeighbors implements core.Scheme, cluster by cluster: S_i lists its
// backbone parent, its backbone children and S'_i; S'_i lists S_i and the
// receivers whose inner list holds the inner source (inner schemes record the
// local root's fan-out only there); then come the remapped inner lists.
func (s *Scheme) EachNeighbors(yield func(id core.NodeID, list []core.NodeID)) {
	var list []core.NodeID
	for i := 0; i < s.cfg.K; i++ {
		list = append(list[:0], core.SourceID)
		if s.parent[i] >= 0 {
			list[0] = s.SuperID(s.parent[i])
		}
		for c := s.cfg.D + i*(s.cfg.D-1); c < s.cfg.D+(i+1)*(s.cfg.D-1) && c < s.cfg.K; c++ {
			list = append(list, s.SuperID(c))
		}
		yield(s.SuperID(i), append(list, s.LocalRootID(i)))

		list = append(list[:0], s.SuperID(i))
		s.inner[i].EachNeighbors(func(id core.NodeID, nbs []core.NodeID) {
			if slices.Contains(nbs, core.SourceID) {
				list = append(list, s.remap(i, id))
			}
		})
		yield(s.LocalRootID(i), list)

		s.inner[i].EachNeighbors(func(id core.NodeID, nbs []core.NodeID) {
			list = list[:0]
			for _, nb := range nbs {
				list = append(list, s.remap(i, nb))
			}
			yield(s.remap(i, id), list)
		})
	}
}

// Neighbors implements core.Scheme: the walk as a map.
func (s *Scheme) Neighbors() map[core.NodeID][]core.NodeID {
	return core.NeighborMap(s.total, 2*s.cfg.Degree, s.EachNeighbors)
}

// Options returns the slotsim configuration a multi-cluster run needs:
// Live mode, the super-node send capacities, Tc-slot backbone latency, and
// a horizon covering the last cluster's shifted schedule.
func (s *Scheme) Options(packets core.Packet, extraSlots core.Slot) slotsim.Options {
	maxShift := s.shift[s.cfg.K-1]
	return slotsim.Options{
		Slots:   maxShift + core.Slot(int(packets)) + extraSlots,
		Packets: packets,
		Mode:    core.Live,
		SendCap: s.SendCap,
		Inject:  slotsim.LatencyFunc(s.Latency),
	}
}

// ReceiverDelays returns the worst and average start delay of a run over
// the true receivers only: the super nodes and local roots are backbone
// infrastructure, not viewers.
func (s *Scheme) ReceiverDelays(res *slotsim.Result) (core.Slot, float64) {
	var worst core.Slot
	var sum float64
	ids := s.ReceiverIDs()
	for _, id := range ids {
		d := res.StartDelay[id]
		worst = max(worst, d)
		sum += float64(d)
	}
	return worst, sum / float64(len(ids))
}
