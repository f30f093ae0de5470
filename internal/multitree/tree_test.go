package multitree

import (
	"math/rand"
	"testing"
	"testing/quick"

	"streamcast/internal/core"
)

// ids converts a plain int slice for table literals.
func ids(v ...int) []core.NodeID {
	out := make([]core.NodeID, len(v))
	for i, x := range v {
		out[i] = core.NodeID(x)
	}
	return out
}

func equalIDs(a, b []core.NodeID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestStructuredMatchesFigure3 reproduces the paper's Figure 3(a):
// N=15, d=3, structured construction.
func TestStructuredMatchesFigure3(t *testing.T) {
	m, err := New(15, 3, Structured)
	if err != nil {
		t.Fatal(err)
	}
	want := [][]core.NodeID{
		ids(1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15),
		ids(5, 6, 7, 8, 9, 10, 11, 12, 1, 2, 3, 4, 15, 13, 14),
		ids(9, 10, 11, 12, 1, 2, 3, 4, 5, 6, 7, 8, 14, 15, 13),
	}
	for k := range want {
		if !equalIDs(m.Trees[k], want[k]) {
			t.Errorf("structured T_%d = %v, want %v", k, m.Trees[k], want[k])
		}
	}
}

// TestGreedyMatchesFigure3 reproduces the paper's Figure 3(b):
// N=15, d=3, greedy construction.
func TestGreedyMatchesFigure3(t *testing.T) {
	m, err := New(15, 3, Greedy)
	if err != nil {
		t.Fatal(err)
	}
	want := [][]core.NodeID{
		ids(1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15),
		ids(5, 6, 7, 8, 3, 1, 2, 9, 4, 11, 12, 10, 14, 15, 13),
		ids(9, 10, 11, 12, 1, 2, 3, 4, 5, 6, 7, 8, 15, 13, 14),
	}
	for k := range want {
		if !equalIDs(m.Trees[k], want[k]) {
			t.Errorf("greedy T_%d = %v, want %v", k, m.Trees[k], want[k])
		}
	}
}

// TestPositionArithmetic checks the BFS position helpers.
func TestPositionArithmetic(t *testing.T) {
	d := 3
	if got := ParentPos(1, d); got != 0 {
		t.Errorf("ParentPos(1)=%d, want 0", got)
	}
	if got := ParentPos(6, d); got != 1 {
		t.Errorf("ParentPos(6)=%d, want 1", got)
	}
	for p := 0; p < 20; p++ {
		for c := 0; c < d; c++ {
			child := ChildPos(p, c, d)
			if ParentPos(child, d) != p {
				t.Errorf("ParentPos(ChildPos(%d,%d))=%d", p, c, ParentPos(child, d))
			}
			if ChildSlot(child, d) != c {
				t.Errorf("ChildSlot(ChildPos(%d,%d))=%d", p, c, ChildSlot(child, d))
			}
		}
	}
	if got := Depth(1, d); got != 1 {
		t.Errorf("Depth(1)=%d, want 1", got)
	}
	if got := Depth(13, 3); got != 3 {
		t.Errorf("Depth(13,3)=%d, want 3", got)
	}
}

// TestPaddedInterior checks the padding arithmetic against hand values.
func TestPaddedInterior(t *testing.T) {
	cases := []struct{ n, d, np, i int }{
		{15, 3, 15, 4},
		{14, 3, 15, 4},
		{13, 3, 15, 4},
		{12, 3, 12, 3},
		{9, 3, 9, 2},
		{1, 2, 2, 0},
		{2, 3, 3, 0},
		{7, 2, 8, 3},
	}
	for _, c := range cases {
		if got := Padded(c.n, c.d); got != c.np {
			t.Errorf("Padded(%d,%d)=%d, want %d", c.n, c.d, got, c.np)
		}
		if got := newMultiTree(c.n, c.d, Padded(c.n, c.d)).I; got != c.i {
			t.Errorf("I(%d,%d)=%d, want %d", c.n, c.d, got, c.i)
		}
	}
}

// TestConstructionsValidateAcrossSizes exercises every (N, d) pair in a
// dense small range plus a sparse large range; New validates the invariants
// internally (permutation, interior-disjointness, positions distinct mod d,
// dummies leaf-only).
func TestConstructionsValidateAcrossSizes(t *testing.T) {
	for _, c := range []Construction{Structured, Greedy} {
		for d := 2; d <= 6; d++ {
			for n := 1; n <= 100; n++ {
				if _, err := New(n, d, c); err != nil {
					t.Fatalf("%s N=%d d=%d: %v", c, n, d, err)
				}
			}
			for _, n := range []int{250, 999, 1000, 1024, 2000} {
				if _, err := New(n, d, c); err != nil {
					t.Fatalf("%s N=%d d=%d: %v", c, n, d, err)
				}
			}
		}
	}
}

// interiorTree returns the index of the (single) tree in which node id is an
// interior node, or -1 if it is a leaf in every tree.
func interiorTree(m *MultiTree, id core.NodeID) int {
	for k := 0; k < m.D; k++ {
		if m.Pos(k, id) <= m.I {
			return k
		}
	}
	return -1
}

// TestInteriorTreeAssignment checks that every real non-all-leaf node is
// interior in exactly one tree and has exactly d children there, and that
// all-leaf nodes are leaves everywhere.
func TestInteriorTreeAssignment(t *testing.T) {
	for _, c := range []Construction{Structured, Greedy} {
		m, err := New(23, 4, c)
		if err != nil {
			t.Fatal(err)
		}
		interiorCount := 0
		for id := core.NodeID(1); int(id) <= m.NP; id++ {
			k := interiorTree(m, id)
			if m.IsDummy(id) && k >= 0 {
				t.Errorf("%s: dummy %d interior in tree %d", c, id, k)
			}
			if k >= 0 {
				interiorCount++
			}
		}
		if want := m.D * m.I; interiorCount != want {
			t.Errorf("%s: %d interior assignments, want %d", c, interiorCount, want)
		}
	}
}

// meshOf collects the tree family's neighbor walk into a map.
func meshOf(m *MultiTree) map[core.NodeID][]core.NodeID {
	return core.NeighborMap(m.N, 2*m.D, m.EachNeighbors)
}

// TestNeighborsBounded verifies the paper's 2d neighbor bound for the
// multi-tree scheme (the source counts as a neighbor).
func TestNeighborsBounded(t *testing.T) {
	for _, c := range []Construction{Structured, Greedy} {
		for _, d := range []int{2, 3, 5} {
			m, err := New(77, d, c)
			if err != nil {
				t.Fatal(err)
			}
			for id, nb := range meshOf(m) {
				if len(nb) > 2*d {
					t.Errorf("%s d=%d: node %d has %d neighbors, > 2d", c, d, id, len(nb))
				}
			}
		}
	}
}

// TestQuickConstructionInvariants is a property test: arbitrary (n, d)
// within bounds always produce valid families with the expected padded
// shape.
func TestQuickConstructionInvariants(t *testing.T) {
	f := func(nRaw, dRaw uint16, which bool) bool {
		n := int(nRaw)%400 + 1
		d := int(dRaw)%6 + 2
		c := Structured
		if which {
			c = Greedy
		}
		m, err := New(n, d, c)
		if err != nil {
			return false
		}
		return m.NP == Padded(n, d) && m.I == (n+d-1)/d-1
	}
	cfg := &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(1))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}
