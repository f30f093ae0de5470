package hypercube

import (
	"strings"
	"testing"

	"streamcast/internal/core"
	"streamcast/internal/slotsim"
)

// TestDimOrderPermutationsWork: the doubling schedule only needs each
// window of k slots to use k distinct dimensions, so every permutation of
// the dimension cycle is a valid design point. The engine validates the slots
// a run executes, and a bare run ends with its window: 3k packets at delay k
// keep it running through four dimension cycles.
func TestDimOrderPermutationsWork(t *testing.T) {
	k := 3
	n := 1<<k - 1
	for _, order := range [][]int{
		{0, 1, 2}, {2, 1, 0}, {1, 2, 0}, {2, 0, 1}, {0, 2, 1}, {1, 0, 2},
	} {
		s, err := NewWithDimOrder(n, order)
		if err != nil {
			t.Fatal(err)
		}
		res, err := slotsim.Run(s, slotsim.Options{
			Slots:   core.Slot(4*k + 6),
			Packets: core.Packet(3 * k),
			Mode:    core.Live,
		})
		if err != nil {
			t.Errorf("order %v: %v", order, err)
			continue
		}
		if res.WorstStartDelay() > core.Slot(k) {
			t.Errorf("order %v: delay %d > k", order, res.WorstStartDelay())
		}
		if res.WorstBuffer() > 2 {
			t.Errorf("order %v: buffer %d > 2", order, res.WorstBuffer())
		}
	}
}

// TestDimOrderNonCoveringFails: repeating a dimension within the cycle
// (omitting another) starves the vertices only reachable across the
// missing dimension — the ablation that justifies the cycling design.
func TestDimOrderNonCoveringFails(t *testing.T) {
	k := 3
	n := 1<<k - 1
	for _, order := range [][]int{
		{0, 0, 1}, {2, 2, 2}, {1, 0, 1},
	} {
		s, err := NewWithDimOrder(n, order)
		if err != nil {
			t.Fatal(err)
		}
		_, err = slotsim.Run(s, slotsim.Options{
			Slots:   core.Slot(6*k + 10),
			Packets: core.Packet(2 * k),
			Mode:    core.Live,
			// A broken order can also produce duplicate deliveries or
			// capacity collisions; any engine rejection counts.
		})
		if err == nil {
			t.Errorf("order %v: schedule unexpectedly valid", order)
			continue
		}
		if !strings.Contains(err.Error(), "never received") &&
			!strings.Contains(err.Error(), "slotsim:") {
			t.Errorf("order %v: unexpected error %v", order, err)
		}
	}
}

// TestNewWithDimOrderValidation covers the constructor errors.
func TestNewWithDimOrderValidation(t *testing.T) {
	if _, err := NewWithDimOrder(6, []int{0, 1, 2}); err == nil {
		t.Error("non 2^k-1 size accepted")
	}
	if _, err := NewWithDimOrder(7, []int{0, 1}); err == nil {
		t.Error("short order accepted")
	}
	if _, err := NewWithDimOrder(7, []int{0, 1, 5}); err == nil {
		t.Error("out-of-range dimension accepted")
	}
}
