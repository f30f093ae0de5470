package obs

import (
	"encoding/json"
	"io"

	"streamcast/internal/stats"
)

// RunReport is the machine-readable summary of one simulation run: what was
// run (scheme, options, schedule fingerprint), the aggregate QoS the paper
// reports (worst/average playback delay, peak buffer), and the per-slot
// time-series the aggregates are derived from. slotsim.BuildReport
// assembles it from a Result, a Metrics observer and the run's arrival
// record; WriteJSON emits it.
type RunReport struct {
	Scheme    string `json:"scheme"`
	Receivers int    `json:"receivers"`
	// Fingerprint identifies the executed schedule (Metrics.Fingerprint).
	Fingerprint string        `json:"fingerprint"`
	Options     ReportOptions `json:"options"`
	Aggregates  Aggregates    `json:"aggregates"`
	// Latency is the per-packet delivery-lag distribution in slots.
	Latency LatencyReport `json:"delivery_latency_slots"`
	Series  Series        `json:"series"`
	PerNode PerNode       `json:"per_node"`
	// Churn is the live-churn section: the applied topology operations and
	// the playback SLOs of the members still live at the end of the run.
	// Nil for runs without a churn directive.
	Churn *ChurnSLO `json:"churn,omitempty"`
}

// ChurnSLO summarizes a live-churn run for the report: what the churn
// source did to the topology (op and swap counts against the d²+d
// per-operation bound) and what playback quality the surviving members
// saw (hiccups, distinct interruptions, worst stall, rebuffer ratio, and
// the time the system took to absorb the churn). The CLI assembles it
// from the run's churn source and slotsim.PlaybackSLO — this package
// only defines the serialized shape.
type ChurnSLO struct {
	Kind   string `json:"kind"`
	Ops    int    `json:"ops"`
	Joins  int    `json:"joins"`
	Leaves int    `json:"leaves"`
	// FirstChurnSlot is the slot of the first applied op, -1 if none fired.
	FirstChurnSlot int     `json:"first_churn_slot"`
	TotalSwaps     int     `json:"total_swaps"`
	MaxSwaps       int     `json:"max_swaps"`
	AvgSwaps       float64 `json:"avg_swaps"`
	// SwapBound is the per-operation d²+d ceiling the run was held to.
	SwapBound int `json:"swap_bound"`
	// NodesMeasured counts the members live at run end whose playback was
	// scored; ExpectedPackets is the total window packets owed across them.
	NodesMeasured   int `json:"nodes_measured"`
	ExpectedPackets int `json:"expected_packets"`
	Hiccups         int `json:"hiccups"`
	Gaps            int `json:"gaps"`
	MaxStallSlots   int `json:"max_stall_slots"`
	// RebufferRatio is Hiccups/ExpectedPackets: playback time spent stalled.
	RebufferRatio float64 `json:"rebuffer_ratio"`
	// TimeToRepairSlots spans the first churn op to the end of the last
	// interruption, worst over all measured nodes.
	TimeToRepairSlots int `json:"time_to_repair_slots"`
}

// ReportOptions records the engine configuration of the run. Workers is the
// count the scenario requested via its `parallel` directive; the engine is
// single-threaded and ignores it.
type ReportOptions struct {
	Slots           int    `json:"slots"`
	Packets         int    `json:"packets"`
	Mode            string `json:"mode"`
	Workers         int    `json:"workers,omitempty"`
	AllowDuplicates bool   `json:"allow_duplicates,omitempty"`
	AllowIncomplete bool   `json:"allow_incomplete,omitempty"`
	SkipUnavailable bool   `json:"skip_unavailable,omitempty"`
}

// Aggregates are the run's headline QoS numbers and event totals.
type Aggregates struct {
	WorstDelaySlots int     `json:"worst_delay_slots"`
	AvgDelaySlots   float64 `json:"avg_delay_slots"`
	WorstBufferPkts int     `json:"worst_buffer_pkts"`
	SlotsUsed       int     `json:"slots_used"`
	MissingPackets  int     `json:"missing_packets"`
	Scheduled       int     `json:"scheduled"`
	Transmissions   int     `json:"transmissions"`
	Deliveries      int     `json:"deliveries"`
	Duplicates      int     `json:"duplicates"`
	Drops           int     `json:"drops"`
}

// LatencyReport is the serialized delivery-latency histogram.
type LatencyReport struct {
	Count   int       `json:"count"`
	Mean    float64   `json:"mean"`
	P50     float64   `json:"p50"`
	P90     float64   `json:"p90"`
	P99     float64   `json:"p99"`
	Max     float64   `json:"max"`
	Bounds  []float64 `json:"bounds"`
	Buckets []int     `json:"buckets"`
}

// NewLatencyReport summarizes a streaming histogram.
func NewLatencyReport(h *stats.StreamingHist) LatencyReport {
	return LatencyReport{
		Count:   h.N,
		Mean:    h.Mean(),
		P50:     h.Quantile(0.50),
		P90:     h.Quantile(0.90),
		P99:     h.Quantile(0.99),
		Max:     h.Max,
		Bounds:  h.Bounds,
		Buckets: h.Counts,
	}
}

// Series holds the per-slot time-series, each indexed by slot 0..Slots-1.
type Series struct {
	Scheduled []int `json:"scheduled"`
	Transmits []int `json:"transmits"`
	Delivers  []int `json:"delivers"`
	Drops     []int `json:"drops,omitempty"`
	InFlight  []int `json:"in_flight"`
	// BufferMax[t] is the largest buffer occupancy over all receivers at
	// the end of slot t; its maximum equals Aggregates.WorstBufferPkts.
	BufferMax []int `json:"buffer_max"`
	// BufferTotal[t] sums buffer occupancy over all receivers — the
	// system-wide storage footprint trajectory.
	BufferTotal []int `json:"buffer_total"`
}

// PerNode holds the per-receiver end-of-run metrics, indexed by node id
// (entry 0, the source, is zero).
type PerNode struct {
	StartDelay []int `json:"start_delay"`
	MaxBuffer  []int `json:"max_buffer"`
	Missing    []int `json:"missing,omitempty"`
}

// WriteJSON emits the report as indented JSON.
func (r *RunReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// ReadReport parses a report written by WriteJSON.
func ReadReport(r io.Reader) (*RunReport, error) {
	var rep RunReport
	if err := json.NewDecoder(r).Decode(&rep); err != nil {
		return nil, err
	}
	return &rep, nil
}
