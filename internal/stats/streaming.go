package stats

import (
	"fmt"
	"math"
	"sort"
)

// StreamingHist is a fixed-boundary histogram that ingests observations one
// at a time without retaining the sample. Bucket i counts observations x
// with x <= Bounds[i] (and x > Bounds[i-1]); a final implicit +Inf bucket
// catches everything above the last bound. The layout matches the
// cumulative-bucket convention of the Prometheus exposition format, so the
// observability exporter can emit it directly.
type StreamingHist struct {
	// Bounds are the ascending bucket upper bounds (exclusive of +Inf).
	Bounds []float64
	// Counts[i] is the number of observations in bucket i; its length is
	// len(Bounds)+1, the last entry being the +Inf overflow bucket.
	Counts []int
	// N, Sum, Min and Max summarize the raw observations exactly.
	N        int
	Sum      float64
	Min, Max float64
}

// NewStreamingHist builds an empty histogram over the given ascending
// bucket upper bounds. The bounds slice is used as-is and must not be
// mutated afterwards.
func NewStreamingHist(bounds []float64) *StreamingHist {
	return &StreamingHist{
		Bounds: bounds,
		Counts: make([]int, len(bounds)+1),
	}
}

// LinearBounds returns n equally spaced upper bounds lo+w, lo+2w, …, hi.
func LinearBounds(lo, hi float64, n int) []float64 {
	if n < 1 || hi <= lo {
		return nil
	}
	w := (hi - lo) / float64(n)
	out := make([]float64, n)
	for i := range out {
		out[i] = lo + float64(i+1)*w
	}
	return out
}

// ExponentialBounds returns n upper bounds start, start·factor,
// start·factor², … (the Prometheus exponential-bucket layout).
func ExponentialBounds(start, factor float64, n int) []float64 {
	if n < 1 || start <= 0 || factor <= 1 {
		return nil
	}
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// Observe adds one observation.
func (h *StreamingHist) Observe(x float64) { h.ObserveN(x, 1) }

// ObserveN adds n observations of the value x (n >= 1) in one step: the
// counts and Min/Max come out as n Observe calls leave them, and Sum grows
// by x·n, which is the same sum exactly when x·n and the running Sum are
// integers below 2^53 (counted integer lags, say).
func (h *StreamingHist) ObserveN(x float64, n int) {
	i := sort.SearchFloat64s(h.Bounds, x)
	h.Counts[i] += n
	if h.N == 0 || x < h.Min {
		h.Min = x
	}
	if h.N == 0 || x > h.Max {
		h.Max = x
	}
	h.N += n
	h.Sum += x * float64(n)
}

// Mean returns the exact mean of the observations.
func (h *StreamingHist) Mean() float64 {
	if h.N == 0 {
		return 0
	}
	return h.Sum / float64(h.N)
}

// Quantile estimates the q-quantile (0 <= q <= 1) from the bucket counts:
// it returns the upper bound of the bucket containing the nearest-rank
// observation, clamped to the exact Min/Max. The estimate is exact when
// bucket bounds are integers and observations are integral (the delay-in-
// slots case).
func (h *StreamingHist) Quantile(q float64) float64 {
	if h.N == 0 {
		return 0
	}
	if q <= 0 {
		return h.Min
	}
	rank := int(math.Ceil(q * float64(h.N)))
	if rank > h.N {
		rank = h.N
	}
	seen := 0
	for i, c := range h.Counts {
		seen += c
		if seen >= rank {
			if i == len(h.Bounds) {
				return h.Max
			}
			b := h.Bounds[i]
			if b > h.Max {
				return h.Max
			}
			if b < h.Min {
				return h.Min
			}
			return b
		}
	}
	return h.Max
}

// Cumulative returns the running bucket totals (the Prometheus `le` counts,
// excluding the +Inf bucket whose cumulative count is N).
func (h *StreamingHist) Cumulative() []int {
	out := make([]int, len(h.Bounds))
	run := 0
	for i := range h.Bounds {
		run += h.Counts[i]
		out[i] = run
	}
	return out
}

// Merge adds another histogram with identical bounds into h, enabling
// per-shard collection followed by lock-free aggregation.
func (h *StreamingHist) Merge(o *StreamingHist) error {
	if len(o.Bounds) != len(h.Bounds) {
		return fmt.Errorf("stats: merging histograms with %d vs %d bounds", len(o.Bounds), len(h.Bounds))
	}
	for i, b := range o.Bounds {
		if b != h.Bounds[i] {
			return fmt.Errorf("stats: merging histograms with different bounds at %d: %v vs %v", i, b, h.Bounds[i])
		}
	}
	if o.N == 0 {
		return nil
	}
	for i, c := range o.Counts {
		h.Counts[i] += c
	}
	if h.N == 0 || o.Min < h.Min {
		h.Min = o.Min
	}
	if h.N == 0 || o.Max > h.Max {
		h.Max = o.Max
	}
	h.N += o.N
	h.Sum += o.Sum
	return nil
}
