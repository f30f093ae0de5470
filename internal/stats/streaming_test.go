package stats

import (
	"math"
	"reflect"
	"testing"
)

func TestStreamingHistObserve(t *testing.T) {
	h := NewStreamingHist([]float64{1, 2, 4})
	for _, x := range []float64{0, 1, 1.5, 2, 3, 4, 9} {
		h.Observe(x)
	}
	// Buckets: x<=1 → {0,1}, x<=2 → {1.5,2}, x<=4 → {3,4}, +Inf → {9}.
	if want := []int{2, 2, 2, 1}; !reflect.DeepEqual(h.Counts, want) {
		t.Errorf("counts %v, want %v", h.Counts, want)
	}
	if h.N != 7 {
		t.Errorf("N = %d, want 7", h.N)
	}
	if h.Min != 0 || h.Max != 9 {
		t.Errorf("min/max = %g/%g, want 0/9", h.Min, h.Max)
	}
	if got, want := h.Mean(), 20.5/7; math.Abs(got-want) > 1e-12 {
		t.Errorf("mean %g, want %g", got, want)
	}
	if want := []int{2, 4, 6}; !reflect.DeepEqual(h.Cumulative(), want) {
		t.Errorf("cumulative %v, want %v", h.Cumulative(), want)
	}
}

func TestStreamingHistQuantile(t *testing.T) {
	// Integral delays over integral bounds: quantiles are exact.
	h := NewStreamingHist(ExponentialBounds(1, 2, 8))
	for x := 1; x <= 100; x++ {
		h.Observe(float64(x))
	}
	if got := h.Quantile(0); got != 1 {
		t.Errorf("q0 = %g, want 1", got)
	}
	if got := h.Quantile(0.5); got != 64 {
		// Nearest-rank 50 lands in the (32,64] bucket.
		t.Errorf("q50 = %g, want 64", got)
	}
	if got := h.Quantile(1); got != 100 {
		t.Errorf("q100 = %g, want 100 (clamped to max)", got)
	}
	var empty StreamingHist
	if got := empty.Quantile(0.5); got != 0 {
		t.Errorf("empty quantile = %g, want 0", got)
	}
}

func TestBoundsBuilders(t *testing.T) {
	if want := []float64{1, 2, 4, 8}; !reflect.DeepEqual(ExponentialBounds(1, 2, 4), want) {
		t.Errorf("ExponentialBounds = %v, want %v", ExponentialBounds(1, 2, 4), want)
	}
	if ExponentialBounds(0, 2, 3) != nil || ExponentialBounds(1, 1, 3) != nil {
		t.Error("degenerate bounds should return nil")
	}
}
