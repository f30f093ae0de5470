package stats

import (
	"math"
	"reflect"
	"testing"
)

// TestSplitMix64Reference pins the generator against the reference
// splitmix64 output stream (Vigna's C implementation, seed 1234567): a
// constant-for-constant transcription error would silently change every
// seeded artifact in the repo, so the stream itself is the contract.
func TestSplitMix64Reference(t *testing.T) {
	want := []uint64{
		6457827717110365317,
		3203168211198807973,
		9817491932198370423,
		4593380528125082431,
		16408922859458223821,
	}
	r := NewSplitMix64(1234567)
	for i, w := range want {
		if got := r.Uint64(); got != w {
			t.Fatalf("output %d: got %d, want %d", i, got, w)
		}
	}
}

// TestSplitMix64Deterministic: equal seeds give equal streams, different
// seeds give different streams.
func TestSplitMix64Deterministic(t *testing.T) {
	a, b := NewSplitMix64(99), NewSplitMix64(99)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at output %d", i)
		}
	}
	c, d := NewSplitMix64(1), NewSplitMix64(2)
	same := true
	for i := 0; i < 16; i++ {
		if c.Uint64() != d.Uint64() {
			same = false
		}
	}
	if same {
		t.Fatal("seeds 1 and 2 produced identical 16-output prefixes")
	}
}

// TestIntnRange: Intn stays in range and hits every residue of a small
// modulus (a catastrophically biased generator would not).
func TestIntnRange(t *testing.T) {
	r := NewSplitMix64(7)
	seen := make([]int, 5)
	for i := 0; i < 5000; i++ {
		v := r.Intn(5)
		if v < 0 || v >= 5 {
			t.Fatalf("Intn(5) = %d out of range", v)
		}
		seen[v]++
	}
	for v, c := range seen {
		if c == 0 {
			t.Fatalf("Intn(5) never produced %d in 5000 draws", v)
		}
	}
}

// intnTwoDivisions is Intn as it was first written — the acceptance limit
// from one division, the value from a second — kept as the reference the
// single-division form must match draw for draw.
func intnTwoDivisions(r *SplitMix64, n int) int {
	max := uint64(n)
	limit := (^uint64(0) / max) * max
	for {
		if v := r.Uint64(); v < limit {
			return int(v % max)
		}
	}
}

// TestIntnMatchesTwoDivisionReference: same values and, after every draw,
// the same generator state (so the same number of rejections) on moduli
// that never reject, that are powers of two, and — 1<<62+1, 1<<63-1 — that
// reject a quarter and a half of all draws.
func TestIntnMatchesTwoDivisionReference(t *testing.T) {
	draws := 200000
	if testing.Short() {
		draws = 20000
	}
	for _, n := range []int{1, 2, 3, 5, 64, 1000, 10001, 1 << 31, 1<<62 + 1, 1<<63 - 1} {
		a, b := NewSplitMix64(uint64(n)), NewSplitMix64(uint64(n))
		for i := 0; i < draws; i++ {
			got, want := a.Intn(n), intnTwoDivisions(b, n)
			if got != want || a.state != b.state {
				t.Fatalf("Intn(%d) draw %d: got %d (state %#x), reference %d (state %#x)",
					n, i, got, a.state, want, b.state)
			}
		}
	}
}

// TestPermIntoMatchesPerm: PermInto over a dirty reused buffer is Perm, and
// leaves the generator in the same state.
func TestPermIntoMatchesPerm(t *testing.T) {
	a, b := NewSplitMix64(11), NewSplitMix64(11)
	buf := make([]int, 300)
	for _, n := range []int{0, 1, 2, 7, 300, 64} {
		a.PermInto(buf[:n])
		if want := b.Perm(n); !reflect.DeepEqual(buf[:n], want) || a.state != b.state {
			t.Fatalf("PermInto(%d) = %v, Perm = %v", n, buf[:n], want)
		}
	}
}

// TestPermValid: Perm returns a permutation, identically for equal seeds.
func TestPermValid(t *testing.T) {
	r := NewSplitMix64(3)
	p := r.Perm(100)
	seen := make([]bool, 100)
	for _, v := range p {
		if v < 0 || v >= 100 || seen[v] {
			t.Fatalf("not a permutation: %v", p)
		}
		seen[v] = true
	}
	if q := NewSplitMix64(3).Perm(100); !reflect.DeepEqual(p, q) {
		t.Fatal("equal seeds produced different permutations")
	}
}

// TestTrialSeeds: derived seeds are reproducible, non-negative, pairwise
// distinct, and a longer list extends a shorter one unchanged.
func TestTrialSeeds(t *testing.T) {
	a := TrialSeeds(42, 8)
	b := TrialSeeds(42, 8)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("TrialSeeds is not deterministic")
	}
	longer := TrialSeeds(42, 12)
	if !reflect.DeepEqual(a, longer[:8]) {
		t.Fatal("extending the trial count perturbed earlier seeds")
	}
	seen := map[int64]bool{}
	for _, s := range a {
		if s < 0 {
			t.Fatalf("negative trial seed %d", s)
		}
		if seen[s] {
			t.Fatalf("duplicate trial seed %d", s)
		}
		seen[s] = true
	}
}

// TestTrialQuantiles checks the pooled aggregation on hand-computable input.
func TestTrialQuantiles(t *testing.T) {
	var q TrialQuantiles
	q.AddTrial([]float64{1, 2, 3, 4})
	q.AddTrial([]float64{5, 6, 7, 8})
	pooled := q.Pooled()
	if pooled.N != 8 || pooled.Min != 1 || pooled.Max != 8 {
		t.Fatalf("pooled summary wrong: %+v", pooled)
	}
	if math.Abs(pooled.Mean-4.5) > 1e-9 {
		t.Fatalf("pooled mean = %v, want 4.5", pooled.Mean)
	}
}
