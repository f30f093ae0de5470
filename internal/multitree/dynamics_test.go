package multitree

import (
	"fmt"
	"math/rand"
	"testing"

	"streamcast/internal/core"
	"streamcast/internal/slotsim"
)

// TestDynamicAddDeleteInvariants runs a long deterministic churn sequence
// and validates every invariant after every operation.
func TestDynamicAddDeleteInvariants(t *testing.T) {
	for _, d := range []int{2, 3, 4, 5} {
		dy, err := NewDynamic(3*d+1, d, false)
		if err != nil {
			t.Fatal(err)
		}
		if err := dy.Validate(); err != nil {
			t.Fatalf("d=%d initial: %v", d, err)
		}
		rng := rand.New(rand.NewSource(42))
		next := 1000
		for step := 0; step < 200; step++ {
			if rng.Intn(2) == 0 || dy.N() <= 2 {
				next++
				if _, err := dy.Add(fmt.Sprintf("new-%d", next)); err != nil {
					t.Fatalf("d=%d step %d add: %v", d, step, err)
				}
			} else {
				names := dy.Names()
				if _, err := dy.Delete(names[rng.Intn(len(names))]); err != nil {
					t.Fatalf("d=%d step %d delete: %v", d, step, err)
				}
			}
			if err := dy.Validate(); err != nil {
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
		dy, err := NewDynamic(4*d, d, false)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(7))
		next := 0
		for step := 0; step < 300; step++ {
			var st OpStats
			if rng.Intn(2) == 0 || dy.N() <= 2 {
				next++
				st, err = dy.Add(fmt.Sprintf("a-%d", next))
				if err != nil {
					t.Fatal(err)
				}
				if st.Swaps > d {
					t.Fatalf("d=%d: addition used %d swaps > d", d, st.Swaps)
				}
			} else {
				names := dy.Names()
				st, err = dy.Delete(names[rng.Intn(len(names))])
				if err != nil {
					t.Fatal(err)
				}
				if st.Swaps > d+d*d {
					t.Fatalf("d=%d: deletion used %d swaps > d+d^2", d, st.Swaps)
				}
			}
			// Affected nodes may hiccup; the paper bounds them by ~d².
			if st.Affected > d*d+2*d {
				t.Fatalf("d=%d: %d affected members", d, st.Affected)
			}
		}
	}
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
				dy, err := NewDynamic(2*d+1, d, lazy)
				if err != nil {
					t.Fatal(err)
				}
				rng := rand.New(rand.NewSource(seed))
				next := 0
				for step := 0; step < 120; step++ {
					var st OpStats
					var op string
					if rng.Intn(3) > 0 || dy.N() <= 2 {
						next++
						op = "add"
						st, err = dy.Add(fmt.Sprintf("g-%d", next))
					} else {
						names := dy.Names()
						op = "delete"
						st, err = dy.Delete(names[rng.Intn(len(names))])
					}
					if err != nil {
						t.Fatalf("d=%d lazy=%v seed=%d step %d: %v", d, lazy, seed, step, err)
					}
					if st.Swaps > SwapBound(d) {
						t.Fatalf("d=%d lazy=%v seed=%d step %d: %s used %d swaps > SwapBound %d",
							d, lazy, seed, step, op, st.Swaps, SwapBound(d))
					}
				}
				if err := dy.Validate(); err != nil {
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
	eager, err := NewDynamic(n+1, d, false)
	if err != nil {
		t.Fatal(err)
	}
	lazy, err := NewDynamic(n+1, d, true)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		name := eager.Names()[0]
		if _, err := eager.Delete(name); err != nil {
			t.Fatal(err)
		}
		if _, err := eager.Add(fmt.Sprintf("r-%d", i)); err != nil {
			t.Fatal(err)
		}
		name = lazy.Names()[0]
		if _, err := lazy.Delete(name); err != nil {
			t.Fatal(err)
		}
		if _, err := lazy.Add(fmt.Sprintf("r-%d", i)); err != nil {
			t.Fatal(err)
		}
		if err := lazy.Validate(); err != nil {
			t.Fatalf("lazy step %d: %v", i, err)
		}
	}
	if lazy.TotalSwaps() >= eager.TotalSwaps() {
		t.Errorf("lazy swaps %d >= eager swaps %d", lazy.TotalSwaps(), eager.TotalSwaps())
	}
}

// TestDynamicStreamsAfterChurn snapshots the family after heavy churn and
// streams over it: the schedule must still satisfy the full communication
// model.
func TestDynamicStreamsAfterChurn(t *testing.T) {
	for _, lazy := range []bool{false, true} {
		dy, err := NewDynamic(20, 3, lazy)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(99))
		for step := 0; step < 120; step++ {
			if rng.Intn(2) == 0 || dy.N() <= 2 {
				if _, err := dy.Add(fmt.Sprintf("c-%d", step)); err != nil {
					t.Fatal(err)
				}
			} else {
				names := dy.Names()
				if _, err := dy.Delete(names[rng.Intn(len(names))]); err != nil {
					t.Fatal(err)
				}
			}
		}
		m, names := dy.Snapshot()
		if len(names) != dy.N() {
			t.Fatalf("lazy=%v: snapshot has %d names, want %d", lazy, len(names), dy.N())
		}
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
	dy, err := NewDynamic(4, 2, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dy.Add("node-1"); err == nil {
		t.Error("duplicate add succeeded")
	}
	if _, err := dy.Delete("nope"); err == nil {
		t.Error("deleting unknown member succeeded")
	}
	for _, n := range []string{"node-1", "node-2", "node-3"} {
		if _, err := dy.Delete(n); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := dy.Delete("node-4"); err == nil {
		t.Error("deleting last member succeeded")
	}
}

// TestDynamicGrowShrinkRoundTrip drives N across several d|N boundaries in
// both directions.
func TestDynamicGrowShrinkRoundTrip(t *testing.T) {
	d := 3
	dy, err := NewDynamic(d, d, false)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3*d*d; i++ {
		if _, err := dy.Add(fmt.Sprintf("up-%d", i)); err != nil {
			t.Fatal(err)
		}
		if err := dy.Validate(); err != nil {
			t.Fatalf("grow %d: %v", i, err)
		}
	}
	for dy.N() > 2 {
		names := dy.Names()
		if _, err := dy.Delete(names[len(names)-1]); err != nil {
			t.Fatal(err)
		}
		if err := dy.Validate(); err != nil {
			t.Fatalf("shrink at N=%d: %v", dy.N(), err)
		}
	}
}
