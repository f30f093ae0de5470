package mdc

import (
	"math/rand"
	"testing"

	"streamcast/internal/core"
	"streamcast/internal/multitree"
	"streamcast/internal/slotsim"
)

// runWithDrop simulates a multi-tree under a failure-injection hook.
func runWithDrop(t *testing.T, n, d int, rounds int, drop slotsim.DropFunc) (*slotsim.Result, *slotsim.Arrivals) {
	t.Helper()
	m, err := multitree.New(n, d, multitree.Greedy)
	if err != nil {
		t.Fatal(err)
	}
	s := multitree.NewScheme(m, core.PreRecorded)
	cells := new(slotsim.Arrivals)
	opt := slotsim.Options{
		Slots:           core.Slot(m.Height()*d + (rounds+3)*d),
		Packets:         core.Packet(rounds * d),
		Arrivals:        cells,
		AllowIncomplete: true,
		SkipUnavailable: true,
	}
	if drop != nil {
		opt.Inject = drop
	}
	res, err := slotsim.Run(s, opt)
	if err != nil {
		t.Fatal(err)
	}
	return res, cells
}

// TestPerfectRunHasFullQuality: without loss every node plays every round
// at quality 1.
func TestPerfectRunHasFullQuality(t *testing.T) {
	res, cells := runWithDrop(t, 30, 3, 4, nil)
	mean, worst := SystemQuality(res, cells, 3)
	if mean != 1 || worst != 1 {
		t.Errorf("mean=%.3f worst=%.3f, want 1,1", mean, worst)
	}
}

// TestInteriorCrashCostsOneDescription: crashing one interior node removes
// at most one description from its subtree — quality stays >= (d-1)/d for
// every node, the graceful-degradation payoff of interior-disjoint trees.
func TestInteriorCrashCostsOneDescription(t *testing.T) {
	n, d := 40, 4
	m, err := multitree.New(n, d, multitree.Greedy)
	if err != nil {
		t.Fatal(err)
	}
	crashed := m.Trees[0][0] // interior in tree 0
	drop := func(tx core.Transmission, at core.Slot) bool {
		return tx.From == crashed
	}
	res, cells := runWithDrop(t, n, d, 5, drop)
	floor := float64(d-1) / float64(d)
	affected := 0
	for id := 1; id <= n; id++ {
		if core.NodeID(id) == crashed {
			continue // the crashed node itself still receives
		}
		qs := RoundQuality(res, cells, core.NodeID(id), d, res.StartDelay[id])
		mq := MeanQuality(qs)
		if mq < floor-1e-9 {
			t.Errorf("node %d quality %.3f below (d-1)/d", id, mq)
		}
		if mq < 1 {
			affected++
		}
	}
	if affected == 0 {
		t.Error("crash affected nobody — drop hook inert?")
	}
}

// TestRandomLossDegradesSmoothly: with p=2% random transmission loss, mean
// quality stays high while strictly below 1, and heavier loss hurts more.
func TestRandomLossDegradesSmoothly(t *testing.T) {
	losses := []float64{0.02, 0.15}
	qualities := make([]float64, len(losses))
	for i, p := range losses {
		rng := rand.New(rand.NewSource(5))
		drop := func(tx core.Transmission, at core.Slot) bool {
			return rng.Float64() < p
		}
		res, cells := runWithDrop(t, 50, 3, 5, drop)
		qualities[i], _ = SystemQuality(res, cells, 3)
	}
	if qualities[0] <= qualities[1] {
		t.Errorf("quality at 2%% loss (%.3f) not above 15%% loss (%.3f)", qualities[0], qualities[1])
	}
	if qualities[0] >= 1 || qualities[0] < 0.7 {
		t.Errorf("2%% loss quality %.3f implausible", qualities[0])
	}
}

// TestQualityHelpers covers the small aggregation helpers.
func TestQualityHelpers(t *testing.T) {
	if MeanQuality(nil) != 0 {
		t.Error("empty timelines should yield 0")
	}
	qs := []float64{1, 0.5, 0.75}
	if MeanQuality(qs) != 0.75 {
		t.Errorf("mean %f", MeanQuality(qs))
	}
}
