package experiments

import (
	"bytes"
	"errors"
	"io"
	"strconv"
	"strings"
	"testing"

	"streamcast/internal/multitree"
	"streamcast/internal/spec"
)

// atoi parses a table cell.
func atoi(t *testing.T, s string) int {
	t.Helper()
	v, err := strconv.Atoi(s)
	if err != nil {
		t.Fatalf("cell %q: %v", s, err)
	}
	return v
}

func atof(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("cell %q: %v", s, err)
	}
	return v
}

// TestFigure4Shape checks the published qualitative result: degree-2 and
// degree-3 curves stay close and below degree-4/5 for large N.
func TestFigure4Shape(t *testing.T) {
	tab, err := Figure4(2000, 200, []int{2, 3, 4, 5}, multitree.Greedy)
	if err != nil {
		t.Fatal(err)
	}
	last := tab.Rows[len(tab.Rows)-1]
	d2, d3, d4, d5 := atoi(t, last[1]), atoi(t, last[2]), atoi(t, last[3]), atoi(t, last[4])
	if d2 > d4 || d2 > d5 || d3 > d4 || d3 > d5 {
		t.Errorf("N=2000: degrees 2/3 (%d,%d) not below 4/5 (%d,%d)", d2, d3, d4, d5)
	}
	if diff := d2 - d3; diff < -6 || diff > 6 {
		t.Errorf("N=2000: degree 2 and 3 differ by %d, expected close", diff)
	}
	// Delays grow with N for fixed degree.
	first := tab.Rows[0]
	if atoi(t, first[1]) >= d2 {
		t.Errorf("degree-2 delay not growing: %s vs %d", first[1], d2)
	}
}

// TestTable1Shape verifies the asymptotic comparison of Table 1: hypercube
// buffers stay at 2 while multi-tree buffers grow; multi-tree neighbor
// counts stay bounded by 2d while hypercube neighbor counts grow.
func TestTable1Shape(t *testing.T) {
	tab, err := Table1([]int{50, 500}, 3)
	if err != nil {
		t.Fatal(err)
	}
	byScheme := map[string][][]string{}
	for _, r := range tab.Rows {
		byScheme[r[1]] = append(byScheme[r[1]], r)
	}
	for _, r := range byScheme["hypercube chain"] {
		if b := atoi(t, r[4]); b > 2 {
			t.Errorf("hypercube buffer %d > 2", b)
		}
	}
	mt := byScheme["multi-tree"]
	if len(mt) != 2 {
		t.Fatalf("expected 2 multi-tree rows, got %d", len(mt))
	}
	if atoi(t, mt[0][4]) >= atoi(t, mt[1][4]) {
		t.Errorf("multi-tree buffer did not grow with N: %s vs %s", mt[0][4], mt[1][4])
	}
	for _, r := range mt {
		if nb := atoi(t, r[5]); nb > 6 {
			t.Errorf("multi-tree neighbors %d > 2d", nb)
		}
	}
	hc := byScheme["hypercube chain"]
	if atoi(t, hc[0][5]) >= atoi(t, hc[1][5]) {
		t.Errorf("hypercube neighbors did not grow: %s vs %s", hc[0][5], hc[1][5])
	}
}

// TestDelayBoundsHold verifies Theorem 2 (upper) and Theorem 3 (lower)
// against the simulator through the experiment runner.
func TestDelayBoundsHold(t *testing.T) {
	tab, err := DelayBounds([]int{20, 100, 300}, []int{2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range tab.Rows {
		worst, bound := atoi(t, r[2]), atoi(t, r[3])
		if worst > bound {
			t.Errorf("N=%s d=%s: worst %d > thm2 %d", r[0], r[1], worst, bound)
		}
		avg, lower := atof(t, r[4]), atof(t, r[5])
		if avg < lower-0.01 {
			t.Errorf("N=%s d=%s: avg %.2f < thm3 lower %.2f", r[0], r[1], avg, lower)
		}
	}
}

// TestHypercubeAvgBoundHolds verifies Theorem 4 through the runner.
func TestHypercubeAvgBoundHolds(t *testing.T) {
	tab, err := HypercubeAvgDelay([]int{7, 50, 200})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range tab.Rows {
		if avg, bound := atof(t, r[2]), atof(t, r[3]); avg > bound {
			t.Errorf("N=%s: avg %.2f > 2log2N %.2f", r[0], avg, bound)
		}
		if worst, exact := atoi(t, r[4]), atoi(t, r[5]); worst > exact {
			t.Errorf("N=%s: worst %d > chain bound %d", r[0], worst, exact)
		}
	}
}

// TestDegreeOptimizationResult confirms argmin F(d) ∈ {2,3} and that the
// measured optimum agrees.
func TestDegreeOptimizationResult(t *testing.T) {
	tab, err := DegreeOptimization([]int{10, 100, 1000}, 6)
	if err != nil {
		t.Fatal(err)
	}
	nCols := len(tab.Columns)
	for _, r := range tab.Rows {
		f := atoi(t, r[nCols-2])
		if f != 2 && f != 3 {
			t.Errorf("N=%s: argmin F = %d", r[0], f)
		}
		m := atoi(t, r[nCols-1])
		if m != 2 && m != 3 {
			t.Errorf("N=%s: measured argmin = %d", r[0], m)
		}
	}
}

// TestChurnSurvivalRunner checks the live-churn sweep's shape and
// invariants: one row per policy × rate, real mid-run work on every row
// (ops applied, members measured), and every worst-case op within the
// appendix d²+d bound — a breach would have aborted the run entirely.
func TestChurnSurvivalRunner(t *testing.T) {
	rates := []float64{0.3, 0.8}
	tab, err := ChurnSurvival(30, 3, 40, rates, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 2*len(rates) {
		t.Fatalf("rows %d, want %d", len(tab.Rows), 2*len(rates))
	}
	for _, r := range tab.Rows {
		if r[0] != "eager" && r[0] != "lazy" {
			t.Fatalf("policy column %q", r[0])
		}
		if ops := atoi(t, r[2]); ops == 0 {
			t.Errorf("%s rate=%s: no ops applied; the row is vacuous", r[0], r[1])
		}
		maxSwaps, bound := atoi(t, r[6]), atoi(t, r[7])
		if maxSwaps > bound {
			t.Errorf("%s rate=%s: max swaps %d over the bound %d", r[0], r[1], maxSwaps, bound)
		}
	}
	// The two policies see the same seeded workload: identical op totals
	// per rate, so the SLO columns are an apples-to-apples comparison.
	for i := range rates {
		eager, lazy := tab.Rows[i], tab.Rows[len(rates)+i]
		if eager[2] != lazy[2] || eager[3] != lazy[3] || eager[4] != lazy[4] {
			t.Errorf("rate=%s: op columns differ between policies: %v vs %v", eager[1], eager[2:5], lazy[2:5])
		}
	}
}

// TestBaselinesShape: chain delay linear in N, others logarithmic.
func TestBaselinesShape(t *testing.T) {
	tab, err := Baselines([]int{200})
	if err != nil {
		t.Fatal(err)
	}
	vals := map[string]int{}
	for _, r := range tab.Rows {
		vals[r[1]] = atoi(t, r[2])
	}
	if vals["chain"] != 199 {
		t.Errorf("chain delay %d, want 199", vals["chain"])
	}
	if vals["multi-tree d=2"] >= vals["chain"]/4 {
		t.Errorf("multi-tree delay %d not far below chain %d", vals["multi-tree d=2"], vals["chain"])
	}
	if vals["single tree b=2"] >= vals["multi-tree d=2"] {
		// The single tree is faster but cheats on upload capacity; just
		// ensure both are logarithmic-scale.
		t.Logf("single tree %d vs multi-tree %d", vals["single tree b=2"], vals["multi-tree d=2"])
	}
}

// TestLiveModesAblation: pre-buffered costs exactly d extra slots over
// pre-recorded at every size; pipelined live costs between 0 and d−1.
func TestLiveModesAblation(t *testing.T) {
	d := 3
	tab, err := LiveModes([]int{10, 40, 100}, d)
	if err != nil {
		t.Fatal(err)
	}
	byN := map[string]map[string]int{}
	for _, r := range tab.Rows {
		if byN[r[0]] == nil {
			byN[r[0]] = map[string]int{}
		}
		byN[r[0]][r[1]] = atoi(t, r[2])
	}
	for n, modes := range byN {
		pre, live, buf := modes["pre-recorded"], modes["live"], modes["live-prebuffered"]
		if buf != pre+d {
			t.Errorf("N=%s: prebuffered %d != prerecorded %d + d", n, buf, pre)
		}
		if live < pre || live > pre+d {
			t.Errorf("N=%s: pipelined live %d outside [%d,%d]", n, live, pre, pre+d)
		}
	}
}

// TestClusterExperimentRuns exercises the cluster runner end to end.
func TestClusterExperimentRuns(t *testing.T) {
	tab, err := ClusterExperiment(5, 3, 2, 10, []int{2, 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 2 {
		t.Fatalf("rows %d", len(tab.Rows))
	}
	// Delay grows with Tc.
	if atoi(t, tab.Rows[0][1]) >= atoi(t, tab.Rows[1][1]) {
		t.Errorf("worst delay not increasing in Tc: %v", tab.Rows)
	}
}

// TestSchemeMatrixCoversRegistry: the registry-driven sweep produces one
// row per registered family, so a new family is measured automatically.
func TestSchemeMatrixCoversRegistry(t *testing.T) {
	tab, err := SchemeMatrix(16)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, r := range tab.Rows {
		seen[r[0]] = true
	}
	for _, name := range spec.SchemeNames() {
		if !seen[name] {
			t.Errorf("scheme matrix missing registered family %q", name)
		}
	}
	if len(tab.Rows) != len(spec.SchemeNames()) {
		t.Errorf("rows %d != families %d", len(tab.Rows), len(spec.SchemeNames()))
	}
}

// TestTableRendering covers the text and CSV output paths.
func TestTableRendering(t *testing.T) {
	tab := &Table{ID: "x", Title: "t", Columns: []string{"a", "bb"}}
	tab.AddRow(1, 2.5)
	tab.AddRow("zz", "w")
	var buf bytes.Buffer
	if err := tab.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "2.50") || !strings.Contains(out, "zz") {
		t.Errorf("render output missing cells:\n%s", out)
	}
	buf.Reset()
	if err := tab.CSV(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "a,bb") {
		t.Errorf("csv missing header: %s", buf.String())
	}
}

var errDiskFull = errors.New("disk full")

// failAfter accepts k bytes, then fails every write with errDiskFull.
type failAfter struct{ k int }

func (w *failAfter) Write(p []byte) (int, error) {
	if len(p) <= w.k {
		w.k -= len(p)
		return len(p), nil
	}
	n := w.k
	w.k = 0
	return n, errDiskFull
}

// TestTableWriteErrors writes a table of several kilobytes, as text and as
// CSV, to a writer that fails after k bytes: every k short of the whole
// output, including one inside a later buffered write, returns the writer's
// error, and the whole output returns none.
func TestTableWriteErrors(t *testing.T) {
	tab := &Table{ID: "x", Title: "t", Columns: []string{"n", "name"}}
	for i := 0; i < 600; i++ {
		tab.AddRow(i, "a row")
	}
	for name, write := range map[string]func(io.Writer) error{"Render": tab.Render, "CSV": tab.CSV} {
		var full bytes.Buffer
		if err := write(&full); err != nil {
			t.Fatalf("%s into a buffer: %v", name, err)
		}
		size := full.Len()
		if size <= 4096 {
			t.Fatalf("%s: %d bytes fit one buffered write; the test needs more", name, size)
		}
		for _, k := range []int{0, 1, 4095, 4096, 4097, size - 1} {
			if err := write(&failAfter{k: k}); !errors.Is(err, errDiskFull) {
				t.Errorf("%s failing after %d of %d bytes: got %v, want the write error", name, k, size, err)
			}
		}
		if err := write(&failAfter{k: size}); err != nil {
			t.Errorf("%s with room for all %d bytes: %v", name, size, err)
		}
	}
}
