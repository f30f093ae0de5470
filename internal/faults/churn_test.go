package faults

import (
	"strings"
	"testing"

	"streamcast/internal/core"
	"streamcast/internal/multitree"
	"streamcast/internal/slotsim"
)

// TestApplyChurnDeterministic: replaying the same plan twice produces the
// same resolved members, the same swap counts, and the same family.
func TestApplyChurnDeterministic(t *testing.T) {
	plan := RandomPlan(11, GenOptions{Nodes: 20, Slots: 40, MaxChurn: 16})
	if len(plan.Churn) == 0 {
		t.Fatal("generator produced no churn for this seed; pick another")
	}
	run := func() ([]ChurnOp, []string) {
		dy, err := multitree.NewDynamic(13, 3, false)
		if err != nil {
			t.Fatal(err)
		}
		ops, err := ApplyChurn(plan, dy)
		if err != nil {
			t.Fatal(err)
		}
		return ops, dy.Names()
	}
	opsA, namesA := run()
	opsB, namesB := run()
	if len(opsA) != len(opsB) {
		t.Fatalf("op counts differ: %d vs %d", len(opsA), len(opsB))
	}
	for i := range opsA {
		if opsA[i] != opsB[i] {
			t.Fatalf("op %d differs: %+v vs %+v", i, opsA[i], opsB[i])
		}
	}
	if strings.Join(namesA, ",") != strings.Join(namesB, ",") {
		t.Fatalf("final membership differs: %v vs %v", namesA, namesB)
	}
}

// TestApplyChurnSwapBound: every generated plan, replayed through eager and
// lazy dynamics at several degrees, keeps every operation within d²+d. A
// breach is an ApplyChurn error, so the bound is enforced, not sampled.
func TestApplyChurnSwapBound(t *testing.T) {
	for _, d := range []int{2, 3, 4} {
		for _, lazy := range []bool{false, true} {
			for seed := int64(0); seed < 15; seed++ {
				plan := RandomPlan(seed, GenOptions{Nodes: 20, Slots: 60, MaxChurn: 24})
				dy, err := multitree.NewDynamic(2*d+1, d, lazy)
				if err != nil {
					t.Fatal(err)
				}
				ops, err := ApplyChurn(plan, dy)
				if err != nil {
					t.Fatalf("d=%d lazy=%v seed=%d: %v", d, lazy, seed, err)
				}
				sum := Summarize(ops, d)
				if sum.MaxSwaps > sum.Bound {
					t.Fatalf("d=%d lazy=%v seed=%d: max swaps %d exceeds bound %d",
						d, lazy, seed, sum.MaxSwaps, sum.Bound)
				}
				if err := dy.Validate(); err != nil {
					t.Fatalf("d=%d lazy=%v seed=%d: final state: %v", d, lazy, seed, err)
				}
			}
		}
	}
}

// TestApplyChurnDiagnostics: bad events are rejected with their index.
func TestApplyChurnDiagnostics(t *testing.T) {
	dy, err := multitree.NewDynamic(7, 2, false)
	if err != nil {
		t.Fatal(err)
	}
	// Leaving an unknown member reports the event index and the name.
	p := &Plan{Churn: []ChurnEvent{
		{At: 1, Name: "late-1"},
		{At: 2, Leave: true, Name: "ghost"},
	}}
	_, err = ApplyChurn(p, dy)
	if err == nil {
		t.Fatal("unknown member leave accepted")
	}
	if !strings.Contains(err.Error(), "churn event 2") || !strings.Contains(err.Error(), "ghost") {
		t.Errorf("diagnostic %q lacks event index or member name", err)
	}
}

// TestApplyChurnFloor: draining the family below 2 members is refused.
func TestApplyChurnFloor(t *testing.T) {
	dy, err := multitree.NewDynamic(2, 2, false)
	if err != nil {
		t.Fatal(err)
	}
	p := &Plan{Churn: []ChurnEvent{{At: 0, Leave: true, Name: AnyName}}}
	if _, err := ApplyChurn(p, dy); err == nil || !strings.Contains(err.Error(), "floor") {
		t.Errorf("floor leave: err = %v", err)
	}
}

// TestChurnedFamilyStreams: a churned snapshot still satisfies the engine
// end to end, and a faulted run over it stays bit-identical across engines
// — churn recovery composes with crash/loss injection.
func TestChurnedFamilyStreams(t *testing.T) {
	const d = 3
	plan := RandomPlan(21, GenOptions{Nodes: 15, Slots: 40, MaxCrash: 1, MaxLoss: 2, MaxChurn: 12})
	dy, err := multitree.NewDynamic(15, d, true)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ApplyChurn(plan, dy); err != nil {
		t.Fatal(err)
	}
	m, _ := dy.Snapshot()
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	s := multitree.NewScheme(m, core.PreRecorded)
	// Clean run first: the churned family must stream perfectly.
	win := core.Packet(3 * d)
	slots := core.Slot(int(win)) + core.Slot(m.Height()*d+4*d+2)
	if _, err := slotsim.Run(s, slotsim.Options{Slots: slots, Packets: win}); err != nil {
		t.Fatalf("churned family does not stream: %v", err)
	}
	// Then the faulted parity run on the same snapshot.
	in, err := NewInjector(plan)
	if err != nil {
		t.Fatal(err)
	}
	runReplayed(t, s, in.Apply(slotsim.Options{Slots: slots, Packets: win}))
}
