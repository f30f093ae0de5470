package hypercube

import (
	"math"
	"testing"

	"streamcast/internal/core"
	"streamcast/internal/slotsim"
)

// runHC simulates the scheme over a window of `packets` packets.
func runHC(t *testing.T, s *Scheme, packets int, cells *slotsim.Arrivals) *slotsim.Result {
	t.Helper()
	// Generous horizon: chained cubes delay at most the sum of dims, which
	// is below (log2 N + 1)^2.
	lg := 1
	for 1<<lg < s.n+1 {
		lg++
	}
	slots := core.Slot(packets + (lg+1)*(lg+1) + 4)
	res, err := slotsim.Run(s, slotsim.Options{
		Slots:    slots,
		Packets:  core.Packet(packets),
		Mode:     core.Live, // the hypercube schedule is inherently live-safe
		Arrivals: cells,     // nil unless the caller reads single arrivals
	})
	if err != nil {
		t.Fatalf("%s N=%d: %v", s.Name(), s.n, err)
	}
	return res
}

// TestPairingDimensionsMatchFigure7 checks the dimension cycle of the
// paper's example: with k=3, slot 3n pairs bit 2 (0xx vs 1xx), slot 3n+1
// pairs bit 0 (xx0 vs xx1), slot 3n+2 pairs bit 1 (x0x vs x1x).
func TestPairingDimensionsMatchFigure7(t *testing.T) {
	c := cubeSpec{k: 3, base: 0, firstID: 1}
	want := map[core.Slot]int{0: 2, 1: 0, 2: 1, 3: 2, 4: 0, 5: 1}
	for tau, dim := range want {
		if got := c.dim(tau); got != dim {
			t.Errorf("dim(%d) = %d, want %d", tau, got, dim)
		}
	}
}

// TestProposition1SingleCube verifies, for N = 2^k − 1: playback can start
// by slot k at every node, every node buffers at most 2 packets, and every
// node communicates with at most k+1 others (its k cube partners plus
// possibly the source).
func TestProposition1SingleCube(t *testing.T) {
	for k := 1; k <= 6; k++ {
		n := 1<<k - 1
		s, err := New(n, 1)
		if err != nil {
			t.Fatal(err)
		}
		if dims := s.CubeDims(); len(dims[0]) != 1 || dims[0][0] != k {
			t.Fatalf("N=%d: cube dims %v, want single cube of dim %d", n, dims, k)
		}
		res := runHC(t, s, 3*k+3, nil)
		if got := res.WorstStartDelay(); got > core.Slot(k) {
			t.Errorf("k=%d: worst start delay %d > k", k, got)
		}
		if got := res.WorstBuffer(); got > 2 {
			t.Errorf("k=%d: worst buffer %d > 2", k, got)
		}
		for id, nb := range s.Neighbors() {
			if len(nb) > k+1 {
				t.Errorf("k=%d: node %d has %d neighbors, > k+1", k, id, len(nb))
			}
		}
	}
}

// TestDoublingInvariant reproduces the Figure 5 state evolution: at the end
// of slot t, packet j is held by exactly 2^(t−j) nodes while spreading and
// by all N nodes from slot j+k on.
func TestDoublingInvariant(t *testing.T) {
	k := 3
	n := 1<<k - 1
	s, err := New(n, 1)
	if err != nil {
		t.Fatal(err)
	}
	cells := new(slotsim.Arrivals)
	runHC(t, s, 12, cells)
	for j := 0; j < 12; j++ {
		for tt := j; tt <= j+k; tt++ {
			holders := 0
			for id := 1; id <= n; id++ {
				if a := cells.At(core.NodeID(id), core.Packet(j)); a >= 0 && a <= core.Slot(tt) {
					holders++
				}
			}
			want := 1 << (tt - j)
			if tt == j+k {
				want = n
			}
			if holders != want {
				t.Errorf("packet %d end of slot %d: %d holders, want %d", j, tt, holders, want)
			}
		}
	}
}

// TestChainedArbitraryN runs every N in 1..120 through the simulator: the
// engine itself verifies the one-send/one-receive model, sender
// availability, and absence of duplicates.
func TestChainedArbitraryN(t *testing.T) {
	for n := 1; n <= 120; n++ {
		s, err := New(n, 1)
		if err != nil {
			t.Fatal(err)
		}
		res := runHC(t, s, 10, nil)
		// Worst delay is bounded by the sum of chained cube dimensions.
		var sum core.Slot
		for _, k := range s.CubeDims()[0] {
			sum += core.Slot(k)
		}
		if got := res.WorstStartDelay(); got > sum {
			t.Errorf("N=%d: worst delay %d > sum of dims %d", n, got, sum)
		}
		if got := res.WorstBuffer(); got > 2 {
			t.Errorf("N=%d: worst buffer %d > 2", n, got)
		}
	}
}

// TestTheorem4AverageDelay checks ave(N) <= 2*log2(N) for chained
// hypercube streaming (Theorem 4).
func TestTheorem4AverageDelay(t *testing.T) {
	for _, n := range []int{3, 7, 10, 25, 64, 100, 255, 300, 500, 1000} {
		s, err := New(n, 1)
		if err != nil {
			t.Fatal(err)
		}
		res := runHC(t, s, 8, nil)
		bound := 2 * math.Log2(float64(n))
		if avg := res.AvgStartDelay(); avg > bound {
			t.Errorf("N=%d: average delay %.2f > 2 log2 N = %.2f", n, avg, bound)
		}
	}
}

// TestGroupedSourceCapacityD verifies the Section 3.2 extension: with
// source capacity d the groups stream independently and worst-case delay is
// bounded by the per-group chain bound.
func TestGroupedSourceCapacityD(t *testing.T) {
	for _, tc := range []struct{ n, d int }{
		{10, 2}, {31, 4}, {100, 3}, {57, 5}, {4, 8},
	} {
		s, err := New(tc.n, tc.d)
		if err != nil {
			t.Fatal(err)
		}
		res := runHC(t, s, 10, nil)
		var worst core.Slot
		for _, dims := range s.CubeDims() {
			var sum core.Slot
			for _, k := range dims {
				sum += core.Slot(k)
			}
			if sum > worst {
				worst = sum
			}
		}
		if got := res.WorstStartDelay(); got > worst {
			t.Errorf("N=%d d=%d: worst delay %d > %d", tc.n, tc.d, got, worst)
		}
		if got := res.WorstBuffer(); got > 2 {
			t.Errorf("N=%d d=%d: worst buffer %d > 2", tc.n, tc.d, got)
		}
	}
}

// TestNeighborBoundArbitraryN verifies the O(log N) neighbor bound of
// Proposition 2. A node that is both an injectee of its own cube and a
// freed sender feeding the next touches partners in three consecutive
// cubes, so the constant is 3: every node talks to at most 3·log2(N+1)+3
// others.
func TestNeighborBoundArbitraryN(t *testing.T) {
	for _, n := range []int{5, 17, 50, 100, 500, 2000} {
		s, err := New(n, 1)
		if err != nil {
			t.Fatal(err)
		}
		lg := math.Log2(float64(n + 1))
		bound := int(3*lg) + 3
		for id, nb := range s.Neighbors() {
			if len(nb) > bound {
				t.Errorf("N=%d: node %d has %d neighbors, > %d", n, id, len(nb), bound)
			}
		}
	}
}

// TestChainDecomposition checks the cube decomposition for hand-computed
// values.
func TestChainDecomposition(t *testing.T) {
	cases := []struct {
		n    int
		dims []int
	}{
		{1, []int{1}},
		{2, []int{1, 1}},
		{3, []int{2}},
		{7, []int{3}},
		{10, []int{3, 2}},
		{11, []int{3, 2, 1}},
		{100, []int{6, 5, 2, 2}},
	}
	for _, c := range cases {
		s, err := New(c.n, 1)
		if err != nil {
			t.Fatal(err)
		}
		got := s.CubeDims()[0]
		if len(got) != len(c.dims) {
			t.Errorf("N=%d: dims %v, want %v", c.n, got, c.dims)
			continue
		}
		for i := range got {
			if got[i] != c.dims[i] {
				t.Errorf("N=%d: dims %v, want %v", c.n, got, c.dims)
				break
			}
		}
	}
}
