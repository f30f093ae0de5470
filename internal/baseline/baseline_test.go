package baseline

import (
	"testing"

	"streamcast/internal/core"
	"streamcast/internal/slotsim"
)

// TestChainDelayIsLinear verifies the motivating observation: node i's
// playback delay under the chain is exactly i−1 slots, with O(1) buffers.
func TestChainDelayIsLinear(t *testing.T) {
	for _, n := range []int{1, 2, 10, 50} {
		c, err := NewChain(n)
		if err != nil {
			t.Fatal(err)
		}
		res, err := slotsim.Run(c, slotsim.Options{
			Slots:   core.Slot(n + 10),
			Packets: 5,
			Mode:    core.Live,
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i <= n; i++ {
			if got := res.StartDelay[i]; got != core.Slot(i-1) {
				t.Errorf("n=%d node %d: delay %d, want %d", n, i, got, i-1)
			}
		}
		if res.WorstBuffer() > 1 {
			t.Errorf("n=%d: chain buffer %d > 1", n, res.WorstBuffer())
		}
	}
}

// TestSingleTreeDelayIsLogarithmic verifies the second strawman: delay
// equals depth−1 with O(1) buffers, at the cost of b× upload at interior
// nodes.
func TestSingleTreeDelayIsLogarithmic(t *testing.T) {
	for _, tc := range []struct{ n, b int }{{7, 2}, {30, 2}, {100, 3}} {
		s, err := NewSingleTree(tc.n, tc.b)
		if err != nil {
			t.Fatal(err)
		}
		res, err := slotsim.Run(s, slotsim.Options{
			Slots:   40,
			Packets: 5,
			Mode:    core.Live,
			SendCap: s.SendCap,
		})
		if err != nil {
			t.Fatal(err)
		}
		for p := 1; p <= tc.n; p++ {
			want := s.depth(p) - 1
			if got := res.StartDelay[p]; got != want {
				t.Errorf("n=%d b=%d node %d: delay %d, want %d", tc.n, tc.b, p, got, want)
			}
		}
		if res.WorstBuffer() > 1 {
			t.Errorf("n=%d: tree buffer %d > 1", tc.n, res.WorstBuffer())
		}
	}
}

// TestSingleTreeViolatesReceiverModel confirms that without the elevated
// send capacity the single tree breaks the one-send-per-slot model — the
// engine must reject it.
func TestSingleTreeViolatesReceiverModel(t *testing.T) {
	s, err := NewSingleTree(7, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := slotsim.Run(s, slotsim.Options{Slots: 20, Packets: 3}); err == nil {
		t.Fatal("single tree ran under receiver model without violation")
	}
}

// TestSingleTreeResourceMetrics checks UploadFactor.
func TestSingleTreeResourceMetrics(t *testing.T) {
	s, err := NewSingleTree(7, 2) // complete binary: 3 interior, 4 leaves
	if err != nil {
		t.Fatal(err)
	}
	if s.UploadFactor() != 2 {
		t.Errorf("upload factor %d", s.UploadFactor())
	}
}

// TestChainNeighbors checks the 2-neighbor property.
func TestChainNeighbors(t *testing.T) {
	c, err := NewChain(5)
	if err != nil {
		t.Fatal(err)
	}
	for id, nb := range c.Neighbors() {
		if len(nb) > 2 {
			t.Errorf("node %d has %d neighbors", id, len(nb))
		}
	}
}

func TestConstructorErrors(t *testing.T) {
	if _, err := NewChain(0); err == nil {
		t.Error("NewChain(0) accepted")
	}
	if _, err := NewSingleTree(0, 2); err == nil {
		t.Error("NewSingleTree(0,2) accepted")
	}
	if _, err := NewSingleTree(5, 1); err == nil {
		t.Error("NewSingleTree(5,1) accepted")
	}
}
