package session

import (
	"testing"

	"streamcast/internal/core"
	"streamcast/internal/multitree"
	"streamcast/internal/slotsim"
)

// runSession executes the swap scenario under loss-cascade semantics.
func runSession(t *testing.T, s *Scheme, packets core.Packet, slots core.Slot) *slotsim.Result {
	t.Helper()
	res, err := slotsim.Run(s, slotsim.Options{
		Slots:           slots,
		Packets:         packets,
		AllowIncomplete: true,
		AllowDuplicates: true,
		SkipUnavailable: true,
	})
	if err != nil {
		t.Fatalf("%s: %v", s.Name(), err)
	}
	return res
}

// baseScheme builds a reference multi-tree scheme.
func baseScheme(t *testing.T, n, d int) *multitree.Scheme {
	t.Helper()
	m, err := multitree.New(n, d, multitree.Greedy)
	if err != nil {
		t.Fatal(err)
	}
	return multitree.NewScheme(m, core.PreRecorded)
}

// TestNoSwapsIsIdentity: with no swaps the session reproduces the base
// schedule exactly.
func TestNoSwapsIsIdentity(t *testing.T) {
	base := baseScheme(t, 20, 3)
	s, err := New(base, nil)
	if err != nil {
		t.Fatal(err)
	}
	for u := core.Slot(0); u < 30; u++ {
		a, b := base.Transmissions(u), s.Transmissions(u)
		if len(a) != len(b) {
			t.Fatalf("slot %d: %d vs %d transmissions", u, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("slot %d tx %d: %v vs %v", u, i, a[i], b[i])
			}
		}
	}
}

// TestLeafSwapBlastRadius: swapping two all-leaf members mid-stream
// perturbs only those two members; everyone else plays hiccup-free.
func TestLeafSwapBlastRadius(t *testing.T) {
	n, d := 30, 3
	base := baseScheme(t, n, d)
	m := base.Tree
	// Two all-leaf members: the tail of tree 0 holds them.
	a := m.Trees[0][m.NP-1]
	b := m.Trees[0][m.NP-2]
	if m.IsDummy(a) || m.IsDummy(b) {
		t.Skip("tail holds dummies at this size")
	}
	swapSlot := core.Slot(m.Height()*d + 6)
	s, err := New(base, []Swap{{Slot: swapSlot, A: a, B: b}})
	if err != nil {
		t.Fatal(err)
	}
	packets := core.Packet(10 * d)
	res := runSession(t, s, packets, core.Slot(m.Height()*d)+core.Slot(packets)+20)
	for id := 1; id <= n; id++ {
		nid := core.NodeID(id)
		start := base.AnalyticStartDelay(nid)
		h := res.Hiccups(nid, start)
		if nid == a || nid == b {
			continue // the swapped members may glitch
		}
		if h != 0 {
			t.Errorf("bystander %d suffered %d hiccups from a leaf swap", id, h)
		}
	}
}

// TestInteriorSwapCascades: swapping an interior member with an all-leaf
// member mid-stream causes hiccups for the interior position's descendants
// during the transition — the cascade the static analysis cannot see.
func TestInteriorSwapCascades(t *testing.T) {
	n, d := 30, 3
	base := baseScheme(t, n, d)
	m := base.Tree
	interior := m.Trees[0][0]  // position 1 of T_0
	leaf := m.Trees[0][m.NP-1] // all-leaf member
	if m.IsDummy(leaf) {
		leaf = m.Trees[0][m.NP-2]
	}
	swapSlot := core.Slot(m.Height()*d + 7)
	s, err := New(base, []Swap{{Slot: swapSlot, A: interior, B: leaf}})
	if err != nil {
		t.Fatal(err)
	}
	packets := core.Packet(12 * d)
	res := runSession(t, s, packets, core.Slot(m.Height()*d)+core.Slot(packets)+20)
	total := 0
	for id := 1; id <= n; id++ {
		total += res.Hiccups(core.NodeID(id), base.AnalyticStartDelay(core.NodeID(id)))
	}
	if total == 0 {
		t.Fatal("interior swap caused no hiccups at all")
	}
	// The cascade is bounded: the interior position's subtree in one tree
	// for a bounded transition window, far below total stream volume.
	if total > n*int(packets)/2 {
		t.Fatalf("hiccup volume %d implausibly large", total)
	}
}

// TestSwapValidation covers constructor errors.
func TestSwapValidation(t *testing.T) {
	base := baseScheme(t, 10, 2)
	if _, err := New(base, []Swap{{Slot: 1, A: 3, B: 3}}); err == nil {
		t.Error("self swap accepted")
	}
	if _, err := New(base, []Swap{{Slot: 1, A: 0, B: 3}}); err == nil {
		t.Error("source swap accepted")
	}
	if _, err := New(base, []Swap{{Slot: -1, A: 1, B: 2}}); err == nil {
		t.Error("negative slot accepted")
	}
	if _, err := New(base, []Swap{{Slot: 1, A: 1, B: 99}}); err == nil {
		t.Error("out-of-range member accepted")
	}
}

// TestSteadyStateRecovery: after the transition window every member is back
// to one packet per slot — hiccups stop growing.
func TestSteadyStateRecovery(t *testing.T) {
	n, d := 24, 2
	base := baseScheme(t, n, d)
	m := base.Tree
	s, err := New(base, []Swap{{Slot: core.Slot(m.Height()*d + 5), A: m.Trees[0][0], B: m.Trees[0][m.NP-1]}})
	if err != nil {
		t.Fatal(err)
	}
	shortWindow := core.Packet(8 * d)
	longWindow := core.Packet(16 * d)
	long := runSession(t, s, longWindow, core.Slot(m.Height()*d)+core.Slot(longWindow)+24)
	for id := 1; id <= n; id++ {
		nid := core.NodeID(id)
		// Hiccups against a start adjusted for the post-swap schedule:
		// take the measured steady start (max lag over the long window).
		start := long.StartDelay[id]
		lateMisses := 0
		for j := int(shortWindow); j < int(longWindow); j++ {
			if a := long.ArrivalAt(nid, core.Packet(j)); a < 0 || a > start+core.Slot(j) {
				lateMisses++
			}
		}
		if lateMisses != 0 {
			t.Errorf("member %d still missing/late on %d packets long after the swap", id, lateMisses)
		}
	}
}
