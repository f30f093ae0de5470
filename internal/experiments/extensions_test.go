package experiments

import "testing"

// TestDelayDistribution: medians grow with N, hypercube p99 tracks its
// worst case (uniform consumption), and every row is internally ordered
// min <= p50 <= mean-ish <= max.
func TestDelayDistribution(t *testing.T) {
	tab, err := DelayDistribution([]int{50, 400}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 4 {
		t.Fatalf("rows %d", len(tab.Rows))
	}
	for _, r := range tab.Rows {
		min, p50, max := atof(t, r[2]), atof(t, r[3]), atof(t, r[7])
		if min > p50 || p50 > max {
			t.Errorf("row %v not ordered", r)
		}
	}
	// Median grows with N for both schemes.
	if atof(t, tab.Rows[0][3]) >= atof(t, tab.Rows[2][3]) {
		t.Errorf("multi-tree median did not grow: %v vs %v", tab.Rows[0], tab.Rows[2])
	}
}

// TestStructuredVsUnstructured: the gossip mesh's measured worst delay must
// exceed the multi-tree's provable bound at every size (the paper's
// motivation for structure).
func TestStructuredVsUnstructured(t *testing.T) {
	tab, err := StructuredVsUnstructured([]int{50, 200}, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(tab.Rows); i += 2 {
		mtMax := atof(t, tab.Rows[i][4])
		gMax := atof(t, tab.Rows[i+1][4])
		if gMax <= mtMax {
			t.Errorf("N=%s: gossip max %.0f <= multi-tree max %.0f", tab.Rows[i][0], gMax, mtMax)
		}
	}
}

// TestChurnImpactExperiment: the per-op impact stays within the appendix
// envelope (≈ d² members) and the lazy variant impacts no more members on
// average than the eager one.
func TestChurnImpactExperiment(t *testing.T) {
	tab, err := ChurnImpact(40, 3, 150, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 2 {
		t.Fatalf("rows %d", len(tab.Rows))
	}
	for _, r := range tab.Rows {
		if maxImp := atoi(t, r[3]); maxImp > 9+6 {
			t.Errorf("%s: max impacted/op %d above d²+2d", r[0], maxImp)
		}
	}
	if atof(t, tab.Rows[1][2]) > atof(t, tab.Rows[0][2])+0.2 {
		t.Errorf("lazy impacts (%s) notably above eager (%s)", tab.Rows[1][2], tab.Rows[0][2])
	}
}

// TestMidStreamSwaps: the control run and an all-leaf member's leave are
// hiccup-free for every survivor (the leave costs no swap at all); an
// interior member's leave costs d swaps and glitches some survivors — more
// than none, no more than its subtree plus the swapped members.
func TestMidStreamSwaps(t *testing.T) {
	const n, d = 41, 3
	tab, err := MidStreamSwaps(n, d)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 3 {
		t.Fatalf("rows %d", len(tab.Rows))
	}
	for _, r := range tab.Rows[:2] {
		if atoi(t, r[1]) != 0 || atoi(t, r[2]) != 0 || atoi(t, r[3]) != 0 {
			t.Errorf("%s: swaps or hiccups where none belong: %v", r[0], r)
		}
	}
	interior := tab.Rows[2]
	if swaps := atoi(t, interior[1]); swaps != d {
		t.Errorf("interior leave took %d swaps, want d = %d (one per tree)", swaps, d)
	}
	if hit := atoi(t, interior[2]); hit == 0 || hit > n/d+d*d+d {
		t.Errorf("interior leave glitched %d survivors, want 1..%d", hit, n/d+d*d+d)
	}
}

// TestMDCGracefulDegradation: the interior-crash row must keep every node
// at or above (d−1)/d quality, and heavier random loss must lower quality
// while raising no-MDC hiccups.
func TestMDCGracefulDegradation(t *testing.T) {
	d := 4
	tab, err := MDCGracefulDegradation(60, d, []float64{0.02, 0.1}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 3 {
		t.Fatalf("rows %d", len(tab.Rows))
	}
	if atoi(t, tab.Rows[0][1]) >= atoi(t, tab.Rows[1][1]) {
		t.Errorf("hiccups not increasing with loss: %v", tab.Rows)
	}
	if atof(t, tab.Rows[0][2]) <= atof(t, tab.Rows[1][2]) {
		t.Errorf("quality not decreasing with loss: %v", tab.Rows)
	}
	crash := tab.Rows[2]
	if w := atof(t, crash[3]); w < float64(d-1)/float64(d)-1e-9 {
		t.Errorf("crash worst-node quality %.3f below (d-1)/d", w)
	}
}

// TestChurnComparison: the multi-tree never exceeds its d+d² bound while
// the hypercube's worst op exceeds it (boundary crossings), even though
// its off-boundary ops are cheap.
func TestChurnComparison(t *testing.T) {
	tab, err := ChurnComparison(60, 3, 600, 9)
	if err != nil {
		t.Fatal(err)
	}
	mtMax := atoi(t, tab.Rows[0][3])
	hcMax := atoi(t, tab.Rows[1][3])
	if mtMax > 12 {
		t.Errorf("multi-tree max moves %d > d+d^2", mtMax)
	}
	if hcMax <= mtMax {
		t.Errorf("hypercube max moves %d not above multi-tree %d — boundary crossings missing", hcMax, mtMax)
	}
}
