package multitree

import (
	"fmt"
	"math/rand"
	"testing"

	"streamcast/internal/core"
	"streamcast/internal/slotsim"
)

// addMember and removeMember are Apply's two ops, at slot 0.
func addMember(ls *LiveScheme, name string) (core.ChurnStats, error) {
	return ls.Apply(0, core.TopologyOp{Name: name})
}

func removeMember(ls *LiveScheme, name string) (core.ChurnStats, error) {
	return ls.Apply(0, core.TopologyOp{Leave: true, Name: name})
}

// memberNames lists the live members' names, sorted.
func memberNames(ls *LiveScheme) []string {
	var out []string
	for _, mem := range ls.Members() {
		out = append(out, mem.Name)
	}
	return out
}

// TestDynamicAddDeleteInvariants runs a long deterministic churn sequence
// and validates every invariant after every operation.
func TestDynamicAddDeleteInvariants(t *testing.T) {
	for _, d := range []int{2, 3, 4, 5} {
		ls, err := NewLiveScheme(3*d+1, d, false, core.PreRecorded)
		if err != nil {
			t.Fatal(err)
		}
		if err := ls.Validate(); err != nil {
			t.Fatalf("d=%d initial: %v", d, err)
		}
		rng := rand.New(rand.NewSource(42))
		next := 1000
		for step := 0; step < 200; step++ {
			if rng.Intn(2) == 0 || ls.m.N <= 2 {
				next++
				if _, err := addMember(ls, fmt.Sprintf("new-%d", next)); err != nil {
					t.Fatalf("d=%d step %d add: %v", d, step, err)
				}
			} else {
				names := memberNames(ls)
				if _, err := removeMember(ls, names[rng.Intn(len(names))]); err != nil {
					t.Fatalf("d=%d step %d delete: %v", d, step, err)
				}
			}
			if err := ls.Validate(); err != nil {
				t.Fatalf("d=%d step %d: %v", d, step, err)
			}
		}
	}
}

// TestDynamicSwapBounds verifies the paper's swap-count bounds: at most d
// per addition, and at most d+d² per deletion (d for the replacement swap,
// d² for the restore step).
func TestDynamicSwapBounds(t *testing.T) {
	for _, d := range []int{2, 3, 4} {
		ls, err := NewLiveScheme(4*d, d, false, core.PreRecorded)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(7))
		next, mostMoved := 0, 0
		for step := 0; step < 300; step++ {
			var st core.ChurnStats
			before, gone := ls.clone(), core.NodeID(0)
			if rng.Intn(2) == 0 || ls.m.N <= 2 {
				next++
				st, err = addMember(ls, fmt.Sprintf("a-%d", next))
				if err != nil {
					t.Fatal(err)
				}
				if st.Swaps > d {
					t.Fatalf("d=%d: addition used %d swaps > d", d, st.Swaps)
				}
			} else {
				names := memberNames(ls)
				name := names[rng.Intn(len(names))]
				gone = ls.byName[name]
				st, err = removeMember(ls, name)
				if err != nil {
					t.Fatal(err)
				}
				if st.Swaps > d+d*d {
					t.Fatalf("d=%d: deletion used %d swaps > d+d^2", d, st.Swaps)
				}
			}
			// Moved members may hiccup; the paper bounds them by ~d².
			moved := movedMembers(before, ls, gone)
			if moved > d*d+2*d {
				t.Fatalf("d=%d step %d: %d members moved", d, step, moved)
			}
			mostMoved = max(mostMoved, moved)
		}
		if mostMoved == 0 {
			t.Errorf("d=%d: no op moved a member, so the bound was never exercised", d)
		}
	}
}

// movedMembers counts the members other than gone (a deleted member) that
// hold positions in both layouts and whose position in some tree differs:
// the nodes an op may cause to hiccup. Ids a grow adds and ids a shrink
// discards are not counted.
func movedMembers(before, after *LiveScheme, gone core.NodeID) int {
	moved := 0
	for id := core.NodeID(1); int(id) < len(before.m.dummy); id++ {
		if id == gone || before.m.pos[0][id] == 0 || after.m.pos[0][id] == 0 {
			continue
		}
		for k, pos := range after.m.pos {
			if pos[id] != before.m.pos[k][id] {
				moved++
				break
			}
		}
	}
	return moved
}

// TestSwapBoundUnderGeneratedChurn drives generated join/leave schedules —
// the same shape internal/faults replays from fault plans — through eager
// and lazy dynamics and requires every single operation to stay within
// SwapBound(d) = d²+d, the appendix's worst case over both op kinds. This
// is the bound faults.LiveChurn enforces as a hard error, so it must hold for
// every reachable state, not just the curated workloads above.
func TestSwapBoundUnderGeneratedChurn(t *testing.T) {
	for _, d := range []int{2, 3, 4, 5} {
		for _, lazy := range []bool{false, true} {
			for seed := int64(0); seed < 10; seed++ {
				ls, err := NewLiveScheme(2*d+1, d, lazy, core.PreRecorded)
				if err != nil {
					t.Fatal(err)
				}
				rng := rand.New(rand.NewSource(seed))
				next := 0
				for step := 0; step < 120; step++ {
					var st core.ChurnStats
					var op string
					if rng.Intn(3) > 0 || ls.m.N <= 2 {
						next++
						op = "add"
						st, err = addMember(ls, fmt.Sprintf("g-%d", next))
					} else {
						names := memberNames(ls)
						op = "delete"
						st, err = removeMember(ls, names[rng.Intn(len(names))])
					}
					if err != nil {
						t.Fatalf("d=%d lazy=%v seed=%d step %d: %v", d, lazy, seed, step, err)
					}
					if st.Swaps > SwapBound(d) {
						t.Fatalf("d=%d lazy=%v seed=%d step %d: %s used %d swaps > SwapBound %d",
							d, lazy, seed, step, op, st.Swaps, SwapBound(d))
					}
				}
				if err := ls.Validate(); err != nil {
					t.Fatalf("d=%d lazy=%v seed=%d: %v", d, lazy, seed, err)
				}
			}
		}
	}
}

// TestLazySavesSwaps reproduces the appendix observation: on an alternating
// delete/add workload that crosses the d|N boundary, the lazy variant skips
// the restore-then-undo pair, saving about d²+d swaps per cycle.
func TestLazySavesSwaps(t *testing.T) {
	d := 3
	n := 4 * d // d | N so a delete crosses the boundary… (N-1 ≡ d-1)
	// Start from N = 4d+1 so that deleting brings us to 4d (tail size 1
	// case is N ≡ 1 mod d: choose N so deletion empties the tail).
	eager, err := NewLiveScheme(n+1, d, false, core.PreRecorded)
	if err != nil {
		t.Fatal(err)
	}
	lazy, err := NewLiveScheme(n+1, d, true, core.PreRecorded)
	if err != nil {
		t.Fatal(err)
	}
	swaps := map[*LiveScheme]int{}
	for i := 0; i < 20; i++ {
		for _, ls := range []*LiveScheme{eager, lazy} {
			out, err := removeMember(ls, memberNames(ls)[0])
			if err != nil {
				t.Fatal(err)
			}
			in, err := addMember(ls, fmt.Sprintf("r-%d", i))
			if err != nil {
				t.Fatal(err)
			}
			swaps[ls] += out.Swaps + in.Swaps
		}
		if err := lazy.Validate(); err != nil {
			t.Fatalf("lazy step %d: %v", i, err)
		}
	}
	if swaps[lazy] >= swaps[eager] {
		t.Errorf("lazy swaps %d >= eager swaps %d", swaps[lazy], swaps[eager])
	}
}

// TestDynamicStreamsAfterChurn relabels the family canonically after heavy
// churn and streams over it: the schedule must still satisfy the full
// communication model.
func TestDynamicStreamsAfterChurn(t *testing.T) {
	for _, lazy := range []bool{false, true} {
		ls, err := NewLiveScheme(20, 3, lazy, core.PreRecorded)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(99))
		for step := 0; step < 120; step++ {
			if rng.Intn(2) == 0 || ls.m.N <= 2 {
				if _, err := addMember(ls, fmt.Sprintf("c-%d", step)); err != nil {
					t.Fatal(err)
				}
			} else {
				names := memberNames(ls)
				if _, err := removeMember(ls, names[rng.Intn(len(names))]); err != nil {
					t.Fatal(err)
				}
			}
		}
		m := canonical(ls)
		s := NewScheme(m, core.PreRecorded)
		res, err := slotsim.Run(s, slotsim.Options{
			Slots:   core.Slot(m.Height()*m.D + 8*m.D),
			Packets: core.Packet(3 * m.D),
		})
		if err != nil {
			t.Fatalf("lazy=%v: post-churn streaming failed: %v", lazy, err)
		}
		if res.WorstStartDelay() > core.Slot(m.Height()*m.D) {
			t.Errorf("lazy=%v: post-churn delay %d exceeds h*d", lazy, res.WorstStartDelay())
		}
	}
}

// TestDynamicErrors exercises the error paths.
func TestDynamicErrors(t *testing.T) {
	ls, err := NewLiveScheme(4, 2, false, core.PreRecorded)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := addMember(ls, "node-1"); err == nil {
		t.Error("duplicate add succeeded")
	}
	if _, err := removeMember(ls, "nope"); err == nil {
		t.Error("deleting unknown member succeeded")
	}
	for _, n := range []string{"node-1", "node-2", "node-3"} {
		if _, err := removeMember(ls, n); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := removeMember(ls, "node-4"); err == nil {
		t.Error("deleting last member succeeded")
	}
}

// TestDynamicGrowShrinkRoundTrip drives N across several d|N boundaries in
// both directions.
func TestDynamicGrowShrinkRoundTrip(t *testing.T) {
	d := 3
	ls, err := NewLiveScheme(d, d, false, core.PreRecorded)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3*d*d; i++ {
		if _, err := addMember(ls, fmt.Sprintf("up-%d", i)); err != nil {
			t.Fatal(err)
		}
		if err := ls.Validate(); err != nil {
			t.Fatalf("grow %d: %v", i, err)
		}
	}
	for ls.m.N > 2 {
		names := memberNames(ls)
		if _, err := removeMember(ls, names[len(names)-1]); err != nil {
			t.Fatal(err)
		}
		if err := ls.Validate(); err != nil {
			t.Fatalf("shrink at N=%d: %v", ls.m.N, err)
		}
	}
}
