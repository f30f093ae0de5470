package stats

// Seeded reproducibility machinery for the probabilistic scheme families:
// a splitmix64 generator (the randreg digraph seed contract), derived
// per-trial seeds, and multi-trial quantile aggregation. The deterministic
// families never needed any of this — their experiment rows are exact — but
// a randomized scheme's delay/buffer numbers are only re-runnable artifacts
// if every sample traces back to one fixed base seed.

import "fmt"

// SplitMix64 is Steele/Lea/Flood's splitmix64 generator: a 64-bit state
// advanced by the golden-gamma increment and finalized by two xor-multiply
// rounds. It is tiny, splittable (any output is a usable child seed), and
// its integer stream is identical on every platform — which is the whole
// point: a graph or schedule derived from a SplitMix64 seed is bit-stable
// across machines, Go versions, and worker counts.
type SplitMix64 struct {
	state uint64
}

// NewSplitMix64 returns a generator with the given seed. Equal seeds yield
// identical streams.
func NewSplitMix64(seed uint64) *SplitMix64 {
	return &SplitMix64{state: seed}
}

// Uint64 returns the next 64-bit output.
func (r *SplitMix64) Uint64() uint64 {
	r.state += 0x9E3779B97F4A7C15
	z := r.state
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	return z
}

// Intn returns a uniform integer in [0, n). It uses rejection sampling, so
// the distribution is exactly uniform for every n, not just powers of two.
func (r *SplitMix64) Intn(n int) int {
	if n <= 0 {
		panic(fmt.Sprintf("stats: Intn(%d): n must be > 0", n))
	}
	max := uint64(n)
	// A draw v is kept when the next multiple of max above it, v - v%max +
	// max, is still representable; draws from the ragged block at the top of
	// the range would bias the modulo and are redrawn. That keeps exactly
	// the draws below (2^64-1)/max*max, with one division deciding both the
	// verdict and the value.
	for {
		v := r.Uint64()
		if rem := v % max; v-rem <= ^uint64(0)-max {
			return int(rem)
		}
	}
}

// Perm returns a uniform random permutation of [0, n) via Fisher-Yates.
func (r *SplitMix64) Perm(n int) []int {
	p := make([]int, n)
	r.PermInto(p)
	return p
}

// PermInto overwrites p with the permutation Perm(len(p)) would return,
// draw for draw, so a per-slot caller can reuse one buffer.
func (r *SplitMix64) PermInto(p []int) {
	for i := range p {
		p[i] = i
	}
	for i := len(p) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
}

// TrialSeeds derives k independent non-negative trial seeds from one base
// seed. The derivation is the splitmix64 stream itself, so trial i of a
// k-trial experiment is the same run forever — adding trials extends the
// list without perturbing earlier ones.
func TrialSeeds(base int64, k int) []int64 {
	r := NewSplitMix64(uint64(base))
	out := make([]int64, k)
	for i := range out {
		// Clear the sign bit: scheme seeds are conventionally positive.
		out[i] = int64(r.Uint64() >> 1)
	}
	return out
}

// TrialQuantiles aggregates a per-node metric (start delay, peak buffer)
// across repeated seeded trials of a randomized scheme into the pooled
// distribution over every node of every trial, which a frontier table
// reports.
type TrialQuantiles struct {
	trials [][]float64
}

// AddTrial records one trial's per-node samples (copied).
func (q *TrialQuantiles) AddTrial(xs []float64) {
	q.trials = append(q.trials, append([]float64(nil), xs...))
}

// Pooled summarizes every sample of every trial as one distribution.
func (q *TrialQuantiles) Pooled() Summary {
	var all []float64
	for _, t := range q.trials {
		all = append(all, t...)
	}
	return Summarize(all)
}
