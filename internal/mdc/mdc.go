package mdc

import (
	"streamcast/internal/core"
	"streamcast/internal/slotsim"
)

// RoundQuality returns, for one node, the per-round playback quality under
// MDC with d descriptions and a fixed playback start: round r plays at slot
// start + (r+1)·d − 1 (when its last description is due) and its quality is
// the fraction of the d description packets that have arrived by then. cells
// are the arrivals the run kept (slotsim.Options.Arrivals).
func RoundQuality(res *slotsim.Result, cells *slotsim.Arrivals, id core.NodeID, d int, start core.Slot) []float64 {
	rounds := int(res.Packets) / d
	out := make([]float64, 0, rounds)
	for r := 0; r < rounds; r++ {
		deadline := start + core.Slot((r+1)*d-1)
		have := 0
		for k := 0; k < d; k++ {
			if a := cells.At(id, core.Packet(r*d+k)); a >= 0 && a <= deadline {
				have++
			}
		}
		out = append(out, float64(have)/float64(d))
	}
	return out
}

// MeanQuality averages a quality timeline.
func MeanQuality(qs []float64) float64 {
	if len(qs) == 0 {
		return 0
	}
	var sum float64
	for _, q := range qs {
		sum += q
	}
	return sum / float64(len(qs))
}

// SystemQuality aggregates mean and minimum round quality over all
// receivers, using each node's measured start delay.
func SystemQuality(res *slotsim.Result, cells *slotsim.Arrivals, d int) (mean, worstNode float64) {
	worstNode = 1
	var sum float64
	for id := 1; id <= res.N; id++ {
		qs := RoundQuality(res, cells, core.NodeID(id), d, res.StartDelay[id])
		m := MeanQuality(qs)
		sum += m
		if m < worstNode {
			worstNode = m
		}
	}
	return sum / float64(res.N), worstNode
}
