package hypercube

import (
	"math/rand"
	"testing"
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

// replayMembers is the reference for the relocation counts: members[i] is
// the member number at index i of decomposition order, and an op costs the
// members present before and after it whose placement differs.
type replayMembers struct{ members []int }

// placements maps each member to its placement.
func (r *replayMembers) placements() map[int][3]int {
	out := make(map[int][3]int, len(r.members))
	for i, mem := range r.members {
		c, k, v := placement(i, len(r.members))
		out[mem] = [3]int{c, k, v}
	}
	return out
}

// op applies a join (idx < 0, member mem appended) or the departure of the
// member at index idx (the last member takes its index) and counts the
// members whose placement changed.
func (r *replayMembers) op(idx, mem int) int {
	before := r.placements()
	if idx < 0 {
		r.members = append(r.members, mem)
	} else {
		last := len(r.members) - 1
		r.members[idx] = r.members[last]
		r.members = r.members[:last]
	}
	moved := 0
	for mem, p := range r.placements() {
		if q, ok := before[mem]; ok && q != p {
			moved++
		}
	}
	return moved
}

// TestRelocationsMatchMemberReplay holds AddRelocations and
// DeleteRelocations to the member-slice replay: on the three scripted cases
// below and over a seeded 2,000-op workload per seed, each delete picking an
// index uniformly, as the churn comparison does.
func TestRelocationsMatchMemberReplay(t *testing.T) {
	check := func(label string, r *replayMembers, idx, mem int) {
		t.Helper()
		n := len(r.members)
		got := AddRelocations(n)
		if idx >= 0 {
			got = DeleteRelocations(n, idx)
		}
		if want := r.op(idx, mem); got != want {
			t.Fatalf("%s: N=%d index %d: %d relocations, the member replay %d", label, n, idx, got, want)
		}
	}
	fresh := func(n int) *replayMembers {
		r := &replayMembers{}
		for i := 0; i < n; i++ {
			r.members = append(r.members, i)
		}
		return r
	}
	for _, c := range []struct{ n, idx int }{{11, -1}, {14, -1}, {12, 0}} {
		check("scripted", fresh(c.n), c.idx, c.n)
	}
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		r := fresh(20)
		for i := 0; i < 2000; i++ {
			if n := len(r.members); rng.Intn(2) == 0 || n <= 2 {
				check("workload", r, -1, 20+i)
			} else {
				check("workload", r, rng.Intn(n), 0)
			}
		}
	}
}

// TestAddAwayFromBoundaryIsCheap: growing 11→12 ([3 2 1] → [3 2 1 1]) moves
// nobody.
func TestAddAwayFromBoundaryIsCheap(t *testing.T) {
	if moved := AddRelocations(11); moved != 0 {
		t.Errorf("11->12 relocated %d members, want 0", moved)
	}
}

// TestAddAcrossBoundaryIsExpensive: 14→15 collapses [3 3] into a single
// 4-cube whose pairing schedule differs, relocating every existing member —
// the worst case that motivates the paper's open problem.
func TestAddAcrossBoundaryIsExpensive(t *testing.T) {
	if moved := AddRelocations(14); moved != 14 {
		t.Errorf("14->15 relocated %d members, want 14", moved)
	}
}

// TestDeleteSwapAccounting: deleting a non-last member counts the swapped-in
// member as relocated.
func TestDeleteSwapAccounting(t *testing.T) {
	// Deleting index 0 of N=12: [3 2 1 1]→[3 2 1]: indices 0..9 stable,
	// the last member moves into index 0 → exactly 1 relocation.
	if moved := DeleteRelocations(12, 0); moved != 1 {
		t.Errorf("relocated %d, want 1", moved)
	}
}
