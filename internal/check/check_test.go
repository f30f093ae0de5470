package check_test

import (
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"

	"streamcast/internal/check"
	"streamcast/internal/cluster"
	"streamcast/internal/core"
	"streamcast/internal/hypercube"
	"streamcast/internal/multitree"
	"streamcast/internal/slotsim"
)

// corrupt wraps a scheme with schedule and mesh mutations, the fault
// injection used to prove the verifier rejects broken constructions.
type corrupt struct {
	core.Scheme
	txMod func(t core.Slot, txs []core.Transmission) []core.Transmission
	nbMod func(nb map[core.NodeID][]core.NodeID) map[core.NodeID][]core.NodeID
}

func (c *corrupt) Transmissions(t core.Slot) []core.Transmission {
	txs := c.Scheme.Transmissions(t)
	if c.txMod != nil {
		txs = c.txMod(t, txs)
	}
	return txs
}

func (c *corrupt) Neighbors() map[core.NodeID][]core.NodeID {
	nb := c.Scheme.Neighbors()
	if c.nbMod != nil {
		nb = c.nbMod(nb)
	}
	return nb
}

// EachNeighbors walks the mutated map in ascending id order; without a mesh
// mutation it is the wrapped scheme's own walk.
func (c *corrupt) EachNeighbors(yield func(id core.NodeID, list []core.NodeID)) {
	if c.nbMod == nil {
		c.Scheme.EachNeighbors(yield)
		return
	}
	nb := c.Neighbors()
	ids := make([]core.NodeID, 0, len(nb))
	for id := range nb {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	for _, id := range ids {
		yield(id, nb[id])
	}
}

// findInterior returns a real node of tree 0 that has at least one real
// child, i.e. a node the schedule uses as a tree-0 interior relay.
func findInterior(t *testing.T, m *multitree.MultiTree) core.NodeID {
	t.Helper()
	for p := 1; p <= m.NP; p++ {
		id := m.Trees[0][p-1]
		if m.IsDummy(id) {
			continue
		}
		for c := 0; c < m.D; c++ {
			if cp := multitree.ChildPos(p, c, m.D); cp <= m.NP && !m.IsDummy(m.Trees[0][cp-1]) {
				return id
			}
		}
	}
	t.Fatal("no interior node in tree 0")
	return 0
}

// TestMultiTreeConstructionsPass: every multi-tree configuration within the
// sweep — both constructions, all three stream modes — passes the full
// static audit, including the Theorem 2 delay and Section 2.3 buffer bounds.
func TestMultiTreeConstructionsPass(t *testing.T) {
	for _, n := range []int{5, 13, 40, 85} {
		for _, d := range []int{2, 3} {
			for _, c := range []multitree.Construction{multitree.Structured, multitree.Greedy} {
				for _, mode := range []core.StreamMode{core.PreRecorded, core.Live, core.LivePreBuffered} {
					m, err := multitree.New(n, d, c)
					if err != nil {
						t.Fatal(err)
					}
					s := multitree.NewScheme(m, mode)
					rep, err := check.Static(s, check.MultiTreeOptions(s, core.Packet(3*d)))
					if err != nil {
						t.Fatal(err)
					}
					if !rep.OK() {
						t.Errorf("n=%d d=%d %v %v rejected: %v", n, d, c, mode, rep.Err())
					}
				}
			}
		}
	}
}

// TestHypercubePass: the special sizes N = 2^k − 1 and arbitrary chained
// sizes pass, including the 2-packet buffer bound and — for single cubes —
// the k neighbor bound of Proposition 1.
func TestHypercubePass(t *testing.T) {
	cases := []struct{ n, d int }{
		{3, 1}, {7, 1}, {15, 1}, {31, 1}, // special N = 2^k − 1
		{11, 1}, {23, 1}, {40, 1}, {40, 2}, {57, 3}, // chained, grouped
	}
	for _, tc := range cases {
		s, err := hypercube.New(tc.n, tc.d)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := check.Static(s, check.HypercubeOptions(s, 8))
		if err != nil {
			t.Fatal(err)
		}
		if !rep.OK() {
			t.Errorf("n=%d d=%d rejected: %v", tc.n, tc.d, rep.Err())
		}
	}
}

// TestRejectCubeDegreeOverflow: the single cube's degree bound is exact at
// k, the longest Neighbors() list of every single cube, so one vertex given
// one extra partner (k + 1 entries) is rejected with the degree diagnostic.
func TestRejectCubeDegreeOverflow(t *testing.T) {
	for k := 2; k <= 6; k++ {
		s, err := hypercube.New(1<<k-1, 1)
		if err != nil {
			t.Fatal(err)
		}
		opt := check.HypercubeOptions(s, 8)
		if opt.MaxNeighbors != k {
			t.Fatalf("k=%d: neighbor bound %d, want k", k, opt.MaxNeighbors)
		}
		cs := &corrupt{Scheme: s, nbMod: func(nb map[core.NodeID][]core.NodeID) map[core.NodeID][]core.NodeID {
			for id, list := range nb {
				if len(list) != k {
					continue
				}
				for o := core.NodeID(1); int(o) <= s.NumReceivers(); o++ {
					if o != id && !slices.Contains(list, o) {
						nb[id] = append(list, o)
						return nb
					}
				}
			}
			t.Fatalf("k=%d: no vertex with k partners and a non-partner", k)
			return nb
		}}
		rep, err := check.Static(cs, opt)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.HasKind(check.KindDegree) || rep.MaxNeighbors != k+1 {
			t.Fatalf("k=%d: a vertex with k+1 partners not rejected (max neighbors %d): %v", k, rep.MaxNeighbors, rep.Issues)
		}
	}
}

// TestClusterPass: the Figure 1 configuration passes for both intra-cluster
// schemes; the holds pass implicitly proves Tc-consistency on the backbone.
func TestClusterPass(t *testing.T) {
	for _, intra := range []cluster.IntraKind{cluster.MultiTree, cluster.Hypercube} {
		s, err := cluster.New(cluster.Config{
			K: 9, D: 3, Tc: 5, ClusterSize: 15, Degree: 3, Intra: intra,
			Construction: multitree.Greedy,
		})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := check.Static(s, check.ClusterOptions(s, 9, 60))
		if err != nil {
			t.Fatal(err)
		}
		if !rep.OK() {
			t.Errorf("%v rejected: %v", intra, rep.Err())
		}
	}
}

// mustMultiTree builds a multi-tree scheme or fails the test.
func mustMultiTree(t *testing.T, n, d int) (*multitree.MultiTree, *multitree.Scheme) {
	t.Helper()
	m, err := multitree.New(n, d, multitree.Structured)
	if err != nil {
		t.Fatal(err)
	}
	return m, multitree.NewScheme(m, core.PreRecorded)
}

// TestRejectSharedInteriorNode: a mesh where one node serves as interior in
// two trees (it relays two residue classes) is rejected with the
// interior-disjointness diagnostic naming the node.
func TestRejectSharedInteriorNode(t *testing.T) {
	m, s := mustMultiTree(t, 13, 2)
	bad := findInterior(t, m)
	other := core.NodeID(1)
	if other == bad {
		other = 2
	}
	opt := check.MultiTreeOptions(s, 6)
	at := opt.DelayBound + 6 // late enough that bad holds packet 1 (tree 1)
	cs := &corrupt{Scheme: s, txMod: func(t core.Slot, txs []core.Transmission) []core.Transmission {
		if t != at {
			return txs
		}
		return append(txs, core.Transmission{From: bad, To: other, Packet: 1})
	}}
	rep, err := check.Static(cs, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.HasKind(check.KindInterior) {
		t.Fatalf("shared interior node not detected: %v", rep.Issues)
	}
	for _, is := range rep.Issues {
		if is.Kind == check.KindInterior {
			if !strings.Contains(is.Detail, "trees {0,1}") {
				t.Errorf("imprecise interior diagnostic: %q", is.Detail)
			}
		}
	}
}

// TestRejectDoubleSendSlot: duplicating a scheduled transmission in its slot
// exceeds the sender's unit capacity, mirroring the engine violation.
func TestRejectDoubleSendSlot(t *testing.T) {
	_, s := mustMultiTree(t, 20, 3)
	opt := check.MultiTreeOptions(s, 9)
	at := opt.DelayBound + 3
	cs := &corrupt{Scheme: s, txMod: func(t core.Slot, txs []core.Transmission) []core.Transmission {
		if t != at {
			return txs
		}
		for _, tx := range txs {
			if tx.From != core.SourceID {
				return append(txs, tx) // second send in the same slot
			}
		}
		return txs
	}}
	rep, err := check.Static(cs, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.HasKind(check.KindSendCap) {
		t.Fatalf("double send not detected: %v", rep.Issues)
	}
}

// TestRejectDegreeOverflow: inflating one node's protocol neighbor set past
// the 2d bound is rejected with the degree diagnostic.
func TestRejectDegreeOverflow(t *testing.T) {
	_, s := mustMultiTree(t, 13, 2)
	cs := &corrupt{Scheme: s, nbMod: func(nb map[core.NodeID][]core.NodeID) map[core.NodeID][]core.NodeID {
		for id := core.NodeID(2); id <= 7; id++ {
			if id != 1 {
				nb[1] = append(nb[1], id)
			}
		}
		return nb
	}}
	rep, err := check.Static(cs, check.MultiTreeOptions(s, 6))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.HasKind(check.KindDegree) {
		t.Fatalf("degree overflow not detected: %v", rep.Issues)
	}
}

// TestRejectMissingMeshEdge: a schedule that talks over an edge absent from
// the mesh is rejected with the consistency diagnostic.
func TestRejectMissingMeshEdge(t *testing.T) {
	_, s := mustMultiTree(t, 13, 2)
	cs := &corrupt{Scheme: s, nbMod: func(nb map[core.NodeID][]core.NodeID) map[core.NodeID][]core.NodeID {
		nb[3] = nil // node 3 no longer admits any neighbor
		return nb
	}}
	rep, err := check.Static(cs, check.MultiTreeOptions(s, 6))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.HasKind(check.KindMesh) {
		t.Fatalf("missing mesh edge not detected: %v", rep.Issues)
	}
}

// TestRejectEarlyBackboneSend: on the cluster backbone, forwarding a packet
// before its Tc-delayed arrival is exactly a Tc-consistency violation and is
// reported as the engine's "sender does not hold packet".
func TestRejectEarlyBackboneSend(t *testing.T) {
	s, err := cluster.New(cluster.Config{
		K: 9, D: 3, Tc: 5, ClusterSize: 10, Degree: 2, Intra: cluster.MultiTree,
	})
	if err != nil {
		t.Fatal(err)
	}
	cs := &corrupt{Scheme: s, txMod: func(t core.Slot, txs []core.Transmission) []core.Transmission {
		if t != 0 {
			return txs
		}
		// S_0 cannot hold packet 0 before slot Tc.
		return append(txs, core.Transmission{From: s.SuperID(0), To: s.SuperID(3), Packet: 0})
	}}
	rep, err := check.Static(cs, check.ClusterOptions(s, 6, 60))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.HasKind(check.KindNotHeld) {
		t.Fatalf("early backbone send not detected: %v", rep.Issues)
	}
}

// TestBoundCrossChecksFire: artificially tightened closed-form bounds are
// reported as bound violations — the cross-check is live, not decorative.
func TestBoundCrossChecksFire(t *testing.T) {
	_, s := mustMultiTree(t, 40, 2)
	opt := check.MultiTreeOptions(s, 6)
	opt.DelayBound = 1
	opt.BufferBound = 1
	rep, err := check.Static(s, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.HasKind(check.KindDelayBound) {
		t.Errorf("delay bound cross-check silent: %v", rep.Issues)
	}
	if !rep.HasKind(check.KindBufferBound) {
		t.Errorf("buffer bound cross-check silent: %v", rep.Issues)
	}
	if rep.WorstDelay <= 1 || rep.WorstBuffer <= 1 {
		t.Errorf("degenerate measurements: delay=%d buffer=%d", rep.WorstDelay, rep.WorstBuffer)
	}
}

// TestOptionValidation: unusable configuration is an error, not a report.
func TestOptionValidation(t *testing.T) {
	_, s := mustMultiTree(t, 5, 2)
	if _, err := check.Static(s, check.Options{Horizon: 0, Packets: 4}); err == nil {
		t.Error("Horizon 0 accepted")
	}
	if _, err := check.Static(s, check.Options{Horizon: 20, Packets: 0}); err == nil {
		t.Error("Packets 0 accepted")
	}
}

// TestBadLatencyIsAnError: a latency below one slot is a configuration
// error, returned as the engine's error rather than filed as an issue.
func TestBadLatencyIsAnError(t *testing.T) {
	_, s := mustMultiTree(t, 5, 2)
	opt := check.MultiTreeOptions(s, 4)
	opt.Inject = slotsim.LatencyFunc(func(core.NodeID, core.NodeID) core.Slot { return 0 })
	rep, err := check.Static(s, opt)
	if err == nil || !strings.Contains(err.Error(), "at least 1") {
		t.Fatalf("latency 0: report %v, error %v", rep, err)
	}
}

// starve drops the one transmission that brings packet 1 to node id. The
// caller picks an interior node of tree 0, which is a leaf of tree 1, so no
// other node misses the packet with it.
func starve(s core.Scheme, id core.NodeID) *corrupt {
	return &corrupt{Scheme: s, txMod: func(_ core.Slot, txs []core.Transmission) []core.Transmission {
		out := txs[:0:0]
		for _, tx := range txs {
			if tx.To != id || tx.Packet != 1 {
				out = append(out, tx)
			}
		}
		return out
	}}
}

// TestRejectIncompleteWindow: a receiver starved of one window packet is
// reported as an incomplete window naming it, and only it; under
// AllowIncomplete the same schedule passes.
func TestRejectIncompleteWindow(t *testing.T) {
	m, s := mustMultiTree(t, 13, 2)
	bad := findInterior(t, m)
	opt := check.MultiTreeOptions(s, 6)
	rep, err := check.Static(starve(s, bad), opt)
	if err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("node %d misses 1 of 6 window packets", bad)
	if len(rep.Issues) != 1 || rep.Issues[0].Kind != check.KindIncomplete || !strings.Contains(rep.Issues[0].Detail, want) {
		t.Fatalf("want one %q issue with %q, got %v", check.KindIncomplete, want, rep.Issues)
	}
	opt.AllowIncomplete = true
	if rep, err := check.Static(starve(s, bad), opt); err != nil || !rep.OK() {
		t.Fatalf("AllowIncomplete: %v %v", err, rep.Issues)
	}
}

// TestIssueCap: a thoroughly broken scheme truncates at MaxIssues but still
// reports, so diagnostics stay readable. With no node listing a neighbor,
// every scheduled edge between receivers is off the mesh.
func TestIssueCap(t *testing.T) {
	_, s := mustMultiTree(t, 13, 2)
	opt := check.MultiTreeOptions(s, 6)
	opt.MaxIssues = 5
	rep, err := check.Static(&corrupt{Scheme: s, nbMod: unlisted}, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Issues) != 5 || !rep.Truncated {
		t.Errorf("cap not honored: %d issues, truncated=%v", len(rep.Issues), rep.Truncated)
	}
	if rep.Err() == nil || !strings.Contains(rep.Err().Error(), "5+") {
		t.Errorf("Err() should flag truncation: %v", rep.Err())
	}
}

// huge is a scheme that is all size and no schedule: the engine under the
// verifier must judge its arrival ledger from NumReceivers and SourceCapacity
// alone, so the schedule and mesh readers fail the test if anything calls
// them.
type huge struct {
	t      *testing.T
	n, cap int
}

func (h huge) Name() string        { return "huge" }
func (h huge) NumReceivers() int   { return h.n }
func (h huge) SourceCapacity() int { return h.cap }
func (h huge) Transmissions(core.Slot) []core.Transmission {
	h.t.Fatal("Transmissions called on a scheme too large to verify")
	return nil
}
func (h huge) Neighbors() map[core.NodeID][]core.NodeID {
	h.t.Fatal("Neighbors called on a scheme too large to verify")
	return nil
}
func (h huge) EachNeighbors(func(core.NodeID, []core.NodeID)) {
	h.t.Fatal("EachNeighbors called on a scheme too large to verify")
}

// TestOversizedVerificationIsRefused: a horizon × population whose arrival
// ledger would exceed core.MaxArrivalCells is refused by the engine's gate
// with a sized error before anything is allocated, generated or read from the
// mesh, and a product that overflows int is refused, not wrapped.
func TestOversizedVerificationIsRefused(t *testing.T) {
	cases := []struct {
		name string
		s    huge
		opt  check.Options
		want string
	}{
		{"population", huge{t, 1 << 28, 1}, check.Options{Horizon: 20, Packets: 8}, "N=268435456 nodes × 21 packet rows"},
		{"overflow", huge{t, 1 << 28, 1 << 40}, check.Options{Horizon: 1 << 30, Packets: 8}, "arrival matrix too large"},
	}
	for _, c := range cases {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := check.Static(c.s, c.opt)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatalf("%s: accepted", c.name)
		}
		for _, want := range []string{c.want, "GiB", "ceiling"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("%s: %v lacks %q", c.name, err, want)
			}
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
			t.Errorf("%s: refusing allocated %d bytes", c.name, grew)
		}
	}
}
