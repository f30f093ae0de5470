package trace

import (
	"fmt"
	"sort"
	"strings"

	"streamcast/internal/core"
	"streamcast/internal/hypercube"
	"streamcast/internal/multitree"
	"streamcast/internal/slotsim"
)

// Trees renders every tree of a multi-tree family level by level, marking
// dummies (Figure 3).
func Trees(m *multitree.MultiTree) string {
	var b strings.Builder
	for k := 0; k < m.D; k++ {
		fmt.Fprintf(&b, "T_%d:\n", k)
		level := 1
		start := 1
		for start <= m.NP {
			width := 1
			for i := 1; i < level; i++ {
				width *= m.D
			}
			width *= m.D
			end := start + width - 1
			if end > m.NP {
				end = m.NP
			}
			fmt.Fprintf(&b, "  depth %d:", level)
			for p := start; p <= end; p++ {
				id := m.Trees[k][p-1]
				if m.IsDummy(id) {
					fmt.Fprintf(&b, " [%d*]", id)
				} else {
					fmt.Fprintf(&b, " %d", id)
				}
			}
			b.WriteByte('\n')
			start = end + 1
			level++
		}
	}
	b.WriteString("(* = dummy node, removed in the real system)\n")
	return b.String()
}

// NodeSchedule renders the receive and send schedule of one node over the d
// trees (Figure 2): in which slots (mod d) it receives from which parent,
// and in which slots it sends to which children.
func NodeSchedule(s *multitree.Scheme, id core.NodeID) string {
	m := s.Tree
	var b strings.Builder
	fmt.Fprintf(&b, "node %d (d=%d):\n", id, m.D)
	for k := 0; k < m.D; k++ {
		p := m.Pos(k, id)
		parent := core.SourceID
		if pp := multitree.ParentPos(p, m.D); pp > 0 {
			parent = m.Trees[k][pp-1]
		}
		first := s.FirstRecvSlot(k, id)
		fmt.Fprintf(&b, "  T_%d: position %d, receives from %s when t mod %d = %d (first at t=%d)\n",
			k, p, nodeName(parent), m.D, int(first)%m.D, first)
		if p <= m.I {
			for c := 0; c < m.D; c++ {
				childPos := multitree.ChildPos(p, c, m.D)
				child := m.Trees[k][childPos-1]
				if m.IsDummy(child) {
					continue
				}
				childFirst := s.FirstRecvSlot(k, child)
				fmt.Fprintf(&b, "       sends to %d when t mod %d = %d\n",
					child, m.D, int(childFirst)%m.D)
			}
		}
	}
	return b.String()
}

func nodeName(id core.NodeID) string {
	if id == core.SourceID {
		return "S"
	}
	return fmt.Sprintf("%d", id)
}

// ClusterTree renders the Figure 1 super-tree: K clusters under a source
// with backbone degree D, each cluster holding S_i, S'_i and its receivers.
func ClusterTree(k, dd, d int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "source S (capacity D=%d)\n", dd)
	parent := func(i int) int {
		if i < dd {
			return -1
		}
		return (i - dd) / (dd - 1)
	}
	depth := make([]int, k)
	for i := 0; i < k; i++ {
		if p := parent(i); p < 0 {
			depth[i] = 1
		} else {
			depth[i] = depth[p] + 1
		}
	}
	for i := 0; i < k; i++ {
		indent := strings.Repeat("  ", depth[i])
		from := "S"
		if p := parent(i); p >= 0 {
			from = fmt.Sprintf("S_%d", p+1)
		}
		fmt.Fprintf(&b, "%s%s ==Tc==> S_%d -> S'_%d (capacity d=%d) -> cluster %d receivers\n",
			indent, from, i+1, i+1, d, i+1)
	}
	b.WriteString("(==Tc==> inter-cluster link, -> intra-cluster link)\n")
	return b.String()
}

// DelayCurves renders Figure 4 as an ASCII chart: worst-case startup delay
// versus N, one row per sampled size, bars per degree.
func DelayCurves(maxN, step int, degrees []int) (string, error) {
	var b strings.Builder
	b.WriteString("worst-case startup delay vs N (multi-tree, greedy construction)\n")
	fmt.Fprintf(&b, "%6s", "N")
	for _, d := range degrees {
		fmt.Fprintf(&b, "  d=%d %-26s", d, "")
	}
	b.WriteByte('\n')
	for n := step; n <= maxN; n += step {
		fmt.Fprintf(&b, "%6d", n)
		for _, d := range degrees {
			// Analytic only: the renderer never simulates, so it reads the
			// raw tree instead of resolving a full scenario per point.
			//lint:ignore construction analytic figure renderer, no engine run
			m, err := multitree.New(n, d, multitree.Greedy)
			if err != nil {
				return "", err
			}
			worst := multitree.NewScheme(m, core.PreRecorded).WorstAnalyticStartDelay()
			fmt.Fprintf(&b, "  %-24s %3d", strings.Repeat("#", int(worst)), worst)
		}
		b.WriteByte('\n')
	}
	return b.String(), nil
}

// HypercubePairs renders the slot pairing pattern of a k-cube over one
// dimension cycle (Figure 7).
func HypercubePairs(k int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "hypercube pairing, k=%d (node 0 = source):\n", k)
	for tau := core.Slot(0); tau < core.Slot(k); tau++ {
		dim := int(((int(tau)-1)%k + k) % k)
		fmt.Fprintf(&b, "  slots t mod %d = %d: pair along bit %d:", k, tau, dim)
		for v := 0; v < 1<<k; v++ {
			if v&(1<<dim) == 0 {
				fmt.Fprintf(&b, " (%0*b,%0*b)", k, v, k, v|1<<dim)
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// HypercubeBufferTrace reproduces the Figure 5/6 view for a single cube of
// dimension k: for each of the given slots, each node's action — the packet
// it receives, the packet it transmits, and the packet it consumes.
func HypercubeBufferTrace(k int, firstSlot, lastSlot core.Slot) (string, error) {
	n := 1<<k - 1
	// The trace derives its window from the requested slot range, not a
	// scenario, so it builds the cube directly.
	//lint:ignore construction figure renderer with a caller-chosen window
	s, err := hypercube.New(n, 1)
	if err != nil {
		return "", err
	}
	packets := core.Packet(int(lastSlot) + 2)
	res, err := slotsim.Run(s, slotsim.Options{
		Slots:   lastSlot + core.Slot(2*k) + 4,
		Packets: packets,
		Mode:    core.Live,
	})
	if err != nil {
		return "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "hypercube buffer trace, N=%d (k=%d):\n", n, k)
	for t := firstSlot; t <= lastSlot; t++ {
		fmt.Fprintf(&b, "  slot %d:\n", t)
		recv := map[core.NodeID]core.Packet{}
		send := map[core.NodeID][]string{}
		for _, tx := range s.Transmissions(t) {
			recv[tx.To] = tx.Packet
			send[tx.From] = append(send[tx.From], fmt.Sprintf("p%d->%s", tx.Packet, nodeName(tx.To)))
		}
		var ids []int
		for id := 1; id <= n; id++ {
			ids = append(ids, id)
		}
		sort.Ints(ids)
		for _, idi := range ids {
			id := core.NodeID(idi)
			line := fmt.Sprintf("    N%d:", id)
			if p, ok := recv[id]; ok {
				line += fmt.Sprintf(" recv p%d", p)
			}
			if txs, ok := send[id]; ok {
				line += " send " + strings.Join(txs, ",")
			}
			// Consumption: packet j plays at slot StartDelay+j.
			j := t - res.StartDelay[id]
			if j >= 0 && core.Packet(int(j)) < packets {
				line += fmt.Sprintf(" consume p%d", j)
			}
			b.WriteString(line)
			b.WriteByte('\n')
		}
		if txs, ok := send[core.SourceID]; ok {
			fmt.Fprintf(&b, "    S: send %s\n", strings.Join(txs, ","))
		}
	}
	return b.String(), nil
}
