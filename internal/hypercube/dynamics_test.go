package hypercube

import (
	"fmt"
	"math/rand"
	"testing"

	"streamcast/internal/core"
	"streamcast/internal/slotsim"
)

func TestPlacement(t *testing.T) {
	// N=10 decomposes as [3 2]: slots 0..6 in the 3-cube, 7..9 in the
	// 2-cube.
	cases := []struct{ slot, cube, k, vertex int }{
		{0, 0, 3, 1}, {6, 0, 3, 7}, {7, 1, 2, 1}, {9, 1, 2, 3},
	}
	for _, c := range cases {
		cube, k, v := placement(c.slot, 10)
		if cube != c.cube || k != c.k || v != c.vertex {
			t.Errorf("placement(%d,10) = (%d,%d,%d), want (%d,%d,%d)",
				c.slot, cube, k, v, c.cube, c.k, c.vertex)
		}
	}
}

// TestAddAwayFromBoundaryIsCheap: growing 11→12 ([3 2 1] → [3 2 1 1]) moves
// nobody.
func TestAddAwayFromBoundaryIsCheap(t *testing.T) {
	dy, err := NewDynamicHC(11)
	if err != nil {
		t.Fatal(err)
	}
	moved, err := dy.Add("fresh")
	if err != nil {
		t.Fatal(err)
	}
	if moved != 0 {
		t.Errorf("11->12 relocated %d members, want 0", moved)
	}
}

// TestAddAcrossBoundaryIsExpensive: 14→15 collapses [3 3] into a single
// 4-cube whose pairing schedule differs, relocating every existing member —
// the worst case that motivates the paper's open problem.
func TestAddAcrossBoundaryIsExpensive(t *testing.T) {
	dy, err := NewDynamicHC(14)
	if err != nil {
		t.Fatal(err)
	}
	moved, err := dy.Add("fresh")
	if err != nil {
		t.Fatal(err)
	}
	if moved != 14 {
		t.Errorf("14->15 relocated %d members, want 14", moved)
	}
}

// TestChurnKeepsStreaming: after a random churn sequence the materialized
// scheme still satisfies the full communication model.
func TestChurnKeepsStreaming(t *testing.T) {
	dy, err := NewDynamicHC(20)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 150; i++ {
		if rng.Intn(2) == 0 || dy.N() <= 2 {
			if _, err := dy.Add(fmt.Sprintf("c-%d", i)); err != nil {
				t.Fatal(err)
			}
		} else {
			names := dy.Names()
			victim := names[core.NodeID(1+rng.Intn(dy.N()))]
			if _, err := dy.Delete(victim); err != nil {
				t.Fatal(err)
			}
		}
	}
	s, err := New(dy.N(), 1)
	if err != nil {
		t.Fatal(err)
	}
	lg := 1
	for 1<<lg < dy.N()+1 {
		lg++
	}
	res, err := slotsim.Run(s, slotsim.Options{
		Slots:   core.Slot(8 + (lg+1)*(lg+1) + 4),
		Packets: 8,
		Mode:    core.Live,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.WorstBuffer() > 2 {
		t.Errorf("post-churn buffer %d > 2", res.WorstBuffer())
	}
}

// TestDeleteSwapAccounting: deleting a non-last member counts the swapped-in
// member as relocated.
func TestDeleteSwapAccounting(t *testing.T) {
	dy, err := NewDynamicHC(12) // [3 2 1 1]
	if err != nil {
		t.Fatal(err)
	}
	// Deleting node-1 (slot 0): 12→11 is [3 2 1 1]→[3 2 1]: slots 0..9
	// stable, the last member moves into slot 0 → exactly 1 relocation.
	moved, err := dy.Delete("node-1")
	if err != nil {
		t.Fatal(err)
	}
	if moved != 1 {
		t.Errorf("relocated %d, want 1", moved)
	}
	if dy.N() != 11 {
		t.Errorf("N=%d, want 11", dy.N())
	}
}

func TestDynamicHCErrors(t *testing.T) {
	dy, err := NewDynamicHC(2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dy.Add("node-1"); err == nil {
		t.Error("duplicate add accepted")
	}
	if _, err := dy.Delete("ghost"); err == nil {
		t.Error("unknown delete accepted")
	}
	if _, err := dy.Delete("node-1"); err != nil {
		t.Fatal(err)
	}
	if _, err := dy.Delete("node-2"); err == nil {
		t.Error("deleting last member accepted")
	}
	if _, err := NewDynamicHC(0); err == nil {
		t.Error("NewDynamicHC(0) accepted")
	}
}
